/**
 * @file
 * Deeper tests of the PNVI-ae-udi machinery and the load/store rule
 * details of section 4.3: exposure paths, iota resolution, the
 * expose-on-integer-load step (2f), byte-level capability handling,
 * and ghost-state propagation through memory.
 */
#include <gtest/gtest.h>

#include "driver/profiles.h"
#include "mem/memory_model.h"
#include "obs/sinks.h"

namespace cherisem::mem {
namespace {

using ctype::IntKind;
using ctype::intType;
using ctype::pointerTo;
using ctype::TypeRef;

class PnviTest : public ::testing::Test
{
  protected:
    MemoryModel::Config config_;
    std::unique_ptr<MemoryModel> mm_;

    void
    SetUp() override
    {
        mm_ = std::make_unique<MemoryModel>(config_);
    }
};

TEST_F(PnviTest, IntegerLoadOfPointerBytesExposes)
{
    // The load rule's taint/expose step (2f): reading a stored
    // pointer's bytes at an integer type exposes its allocation.
    auto x = mm_->allocateObject("x", intType(IntKind::Int), false,
                                 false);
    TypeRef pp = pointerTo(intType(IntKind::Int));
    auto box = mm_->allocateObject("box", pp, false, false);
    ASSERT_TRUE(mm_->store({}, pp, box.value(),
                           MemValue(x.value()))
                    .ok());
    ASSERT_FALSE(mm_->findAllocation(x.value().prov.id)->exposed);

    // Load the first 8 bytes of the representation as a long.
    auto l = mm_->load({}, intType(IntKind::Long), box.value());
    ASSERT_TRUE(l.ok()) << l.error().str();
    EXPECT_TRUE(mm_->findAllocation(x.value().prov.id)->exposed);
    // The loaded value is the address (Fig. 1 low word).
    EXPECT_EQ(static_cast<uint64_t>(l.value().asInteger().value()),
              x.value().address());
}

TEST_F(PnviTest, IotaResolvedByAccessCollapses)
{
    auto a = mm_->allocateRegion("a", 16, 16);
    auto b = mm_->allocateRegion("b", 16, 16);
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_EQ(a.value().address() + 16, b.value().address());
    (void)mm_->intFromPtr({}, IntKind::Uintptr, a.value());
    (void)mm_->intFromPtr({}, IntKind::Uintptr, b.value());

    uint64_t boundary = b.value().address();
    auto p = mm_->ptrFromInt(
        {}, IntegerValue::ofNum(IntKind::Long,
                                static_cast<__int128>(boundary)));
    ASSERT_TRUE(p.ok());
    ASSERT_TRUE(p.value().prov.isIota());
    // Give the iota pointer a usable capability so the access reaches
    // the provenance logic (simulating a uintptr_t-preserved cap).
    PointerValue q = p.value();
    q.cap = b.value().cap;

    EXPECT_FALSE(mm_->peekProvenance(q.prov).has_value());
    ASSERT_TRUE(mm_->store({}, intType(IntKind::Int), q,
                           MemValue(IntegerValue::ofNum(IntKind::Int,
                                                        1)))
                    .ok());
    // The access footprint lies in b: the iota must now be resolved.
    auto resolved = mm_->peekProvenance(q.prov);
    ASSERT_TRUE(resolved.has_value());
    EXPECT_EQ(*resolved, b.value().prov.id);
}

/** Build an unresolved iota pointer at the a/b boundary (§3.11): two
 *  adjacent exposed heap regions, then int-to-pointer at b's base. */
struct IotaAtBoundary
{
    PointerValue a, b, q;
};

static IotaAtBoundary
makeIotaAtBoundary(MemoryModel &mm)
{
    IotaAtBoundary r;
    auto a = mm.allocateRegion("a", 16, 16);
    auto b = mm.allocateRegion("b", 16, 16);
    EXPECT_TRUE(a.ok() && b.ok());
    r.a = a.value();
    r.b = b.value();
    EXPECT_EQ(r.a.address() + 16, r.b.address());
    (void)mm.intFromPtr({}, IntKind::Uintptr, r.a);
    (void)mm.intFromPtr({}, IntKind::Uintptr, r.b);
    auto p = mm.ptrFromInt(
        {}, IntegerValue::ofNum(
                IntKind::Long,
                static_cast<__int128>(r.b.address())));
    EXPECT_TRUE(p.ok());
    r.q = p.value();
    EXPECT_TRUE(r.q.prov.isIota());
    r.q.cap = r.b.cap; // uintptr_t-preserved capability view
    return r;
}

TEST_F(PnviTest, IotaWithDeadContainingCandidateIsUseAfterFree)
{
    // §3.11 boundary cast, then the containing candidate (b) dies
    // before the iota is resolved.  The access still disambiguates to
    // b by footprint — and must then report the *temporal* UB, not a
    // generic bounds failure and not a silent resolution to a.
    IotaAtBoundary s = makeIotaAtBoundary(*mm_);
    ASSERT_TRUE(mm_->kill({}, true, s.b).ok());
    auto r = mm_->store({}, intType(IntKind::Int), s.q,
                        MemValue(IntegerValue::ofNum(IntKind::Int, 1)));
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().ub, Ub::AccessDeadAllocation)
        << r.error().str();
}

TEST_F(PnviTest, IotaWithDeadOtherCandidateStillResolves)
{
    // The candidate that does NOT contain the footprint (a) dying
    // must not poison the resolution: the access lands in b and
    // succeeds, resolving the iota to b.
    IotaAtBoundary s = makeIotaAtBoundary(*mm_);
    ASSERT_TRUE(mm_->kill({}, true, s.a).ok());
    auto r = mm_->store({}, intType(IntKind::Int), s.q,
                        MemValue(IntegerValue::ofNum(IntKind::Int, 2)));
    ASSERT_TRUE(r.ok()) << r.error().str();
    auto resolved = mm_->peekProvenance(s.q.prov);
    ASSERT_TRUE(resolved.has_value());
    EXPECT_EQ(*resolved, s.b.prov.id);
}

TEST_F(PnviTest, IotaBothCandidatesDeadIsUseAfterFree)
{
    IotaAtBoundary s = makeIotaAtBoundary(*mm_);
    ASSERT_TRUE(mm_->kill({}, true, s.a).ok());
    ASSERT_TRUE(mm_->kill({}, true, s.b).ok());
    auto r = mm_->load({}, intType(IntKind::Int), s.q);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().ub, Ub::AccessDeadAllocation)
        << r.error().str();
}

TEST_F(PnviTest, IotaFootprintInNeitherCandidateIsOutOfBounds)
{
    // A footprint straddling the a/b boundary is inside neither
    // allocation.  Forge a wide capability so the capability check
    // passes and the provenance layer is what rejects the access
    // (alignment checks off so the straddling int access gets there).
    MemoryModel::Config cfg;
    cfg.checkAlignment = false;
    MemoryModel mm(cfg);
    IotaAtBoundary s = makeIotaAtBoundary(mm);
    PointerValue wide = s.q;
    wide.cap = cap::Capability::make(
        mm.arch(), s.a.address(),
        uint128(s.b.address()) + 16, cap::PermSet::data());
    wide.cap = wide.cap->withAddress(s.b.address() - 2);
    auto r = mm.load({}, intType(IntKind::Int), wide);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().ub, Ub::AccessOutOfBounds) << r.error().str();
    // The iota stays unresolved: a UB access constrains nothing.
    EXPECT_FALSE(mm.peekProvenance(s.q.prov).has_value());
}

TEST_F(PnviTest, DeadAllocationsDoNotAttach)
{
    auto a = mm_->allocateRegion("a", 32, 16);
    ASSERT_TRUE(a.ok());
    (void)mm_->intFromPtr({}, IntKind::Uintptr, a.value());
    uint64_t addr = a.value().address();
    ASSERT_TRUE(mm_->kill({}, true, a.value()).ok());
    auto p = mm_->ptrFromInt(
        {}, IntegerValue::ofNum(IntKind::Long,
                                static_cast<__int128>(addr)));
    ASSERT_TRUE(p.ok());
    EXPECT_TRUE(p.value().prov.isEmpty());
}

TEST_F(PnviTest, UnalignedPointerBytesLoseProvenance)
{
    // Copying a pointer's bytes to a shifted position breaks the
    // index sequence: the reloaded value has empty provenance and no
    // tag (the PNVI pointer-copy discipline).
    auto x = mm_->allocateObject("x", intType(IntKind::Int), false,
                                 false);
    TypeRef pp = pointerTo(intType(IntKind::Int));
    auto buf = mm_->allocateRegion("buf", 64, 16);
    ASSERT_TRUE(buf.ok());
    ASSERT_TRUE(
        mm_->store({}, pp, buf.value(), MemValue(x.value())).ok());

    // Re-read the representation shifted by one byte.
    PointerValue shifted = buf.value();
    shifted.cap = buf.value().cap->withAddress(
        buf.value().address() + 16);
    // Copy [1..17) to [16..32): a misaligned jumble.
    for (unsigned i = 0; i < 16; ++i) {
        auto byte = mm_->peekByte(buf.value().address() + 1 + i);
        // Write raw bytes through a char store.
        PointerValue bp = buf.value();
        bp.cap = buf.value().cap->withAddress(
            buf.value().address() + 16 + i);
        ASSERT_TRUE(mm_->store({}, intType(IntKind::UChar), bp,
                               MemValue(IntegerValue::ofNum(
                                   IntKind::UChar,
                                   byte.value_or(0))))
                        .ok());
    }
    auto r = mm_->load({}, pp, shifted);
    ASSERT_TRUE(r.ok()) << r.error().str();
    EXPECT_TRUE(r.value().asPointer().prov.isEmpty());
    EXPECT_FALSE(r.value().asPointer().cap->tag());
}

TEST_F(PnviTest, MemcpyMovesProvenanceWithBytes)
{
    auto x = mm_->allocateObject("x", intType(IntKind::Int), false,
                                 false);
    TypeRef pp = pointerTo(intType(IntKind::Int));
    auto src = mm_->allocateObject("src", pp, false, false);
    auto dst = mm_->allocateObject("dst", pp, false, false);
    ASSERT_TRUE(
        mm_->store({}, pp, src.value(), MemValue(x.value())).ok());
    ASSERT_TRUE(mm_->memcpyOp({}, dst.value(), src.value(),
                              mm_->arch().capSize())
                    .ok());
    auto r = mm_->load({}, pp, dst.value());
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().asPointer().prov, x.value().prov);
}

TEST_F(PnviTest, MemcpyOverlapIsUb)
{
    auto buf = mm_->allocateRegion("buf", 64, 16);
    ASSERT_TRUE(buf.ok());
    ASSERT_TRUE(mm_->memsetOp({}, buf.value(), 1, 64).ok());
    PointerValue mid = buf.value();
    mid.cap = buf.value().cap->withAddress(buf.value().address() + 8);
    auto r = mm_->memcpyOp({}, mid, buf.value(), 32);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().ub, Ub::MemcpyOverlap);
}

TEST_F(PnviTest, GhostBitsSurviveStoreLoad)
{
    // A ghost-marked (u)intptr_t value written to memory and read
    // back keeps its ghost bits (the C map carries them).
    auto x = mm_->allocateObject("x", intType(IntKind::Int), false,
                                 false);
    Capability wild =
        x.value().cap->withAddressGhost(x.value().address() +
                                        (1u << 28));
    ASSERT_TRUE(wild.ghost().boundsUnspec);
    TypeRef up = intType(IntKind::Uintptr);
    auto slot = mm_->allocateObject("u", up, false, false);
    ASSERT_TRUE(mm_->store({}, up, slot.value(),
                           MemValue(IntegerValue::ofCap(
                               IntKind::Uintptr, wild,
                               Provenance::empty())))
                    .ok());
    auto r = mm_->load({}, up, slot.value());
    ASSERT_TRUE(r.ok()) << r.error().str();
    EXPECT_TRUE(r.value().asInteger().cap->ghost().boundsUnspec);
}

TEST_F(PnviTest, StatsCountGhostInvalidations)
{
    auto x = mm_->allocateObject("x", intType(IntKind::Int), false,
                                 false);
    TypeRef pp = pointerTo(intType(IntKind::Int));
    auto box = mm_->allocateObject("box", pp, false, false);
    ASSERT_TRUE(
        mm_->store({}, pp, box.value(), MemValue(x.value())).ok());
    uint64_t before = mm_->stats().ghostTagInvalidations;
    ASSERT_TRUE(mm_->store({}, intType(IntKind::UChar), box.value(),
                           MemValue(IntegerValue::ofNum(
                               IntKind::UChar, 0)))
                    .ok());
    EXPECT_GT(mm_->stats().ghostTagInvalidations, before);
}

TEST_F(PnviTest, HardwareModeSkipsProvenanceChecks)
{
    config_.checkProvenance = false;
    config_.readUninitIsUb = false;
    mm_ = std::make_unique<MemoryModel>(config_);
    auto a = mm_->allocateRegion("a", 16, 16);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(mm_->kill({}, true, a.value()).ok());
    // Use after free succeeds (the capability is still tagged and the
    // memory still there): section 3, objective 3's caveat.
    auto r = mm_->load({}, intType(IntKind::Int), a.value());
    EXPECT_TRUE(r.ok()) << (r.ok() ? "" : r.error().str());
}

TEST_F(PnviTest, RelationalAcrossAllocationsOkInHardwareMode)
{
    config_.checkProvenance = false;
    mm_ = std::make_unique<MemoryModel>(config_);
    auto a = mm_->allocateRegion("a", 16, 16);
    auto b = mm_->allocateRegion("b", 16, 16);
    auto r = mm_->ptrRelational({}, RelOp::Lt, a.value(), b.value());
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r.value());
}

TEST_F(PnviTest, ValidForDeref)
{
    auto x = mm_->allocateObject("x", intType(IntKind::Int), false,
                                 false);
    EXPECT_TRUE(mm_->validForDeref(x.value(), 4));
    EXPECT_FALSE(mm_->validForDeref(x.value(), 8)); // too wide
    PointerValue bad = x.value();
    bad.cap = x.value().cap->withTagCleared();
    EXPECT_FALSE(mm_->validForDeref(bad, 4));
    EXPECT_FALSE(
        mm_->validForDeref(PointerValue::null(mm_->arch()), 1));
}

// ---------------------------------------------------------------------
// Boundary ties: two live allocations meet at one address.  Whatever
// their address order, the lower id comes first among iota candidates
// and wins a zero-length access under a hardware config.  The stack
// grows down, so two locals put the lower id at the higher address;
// two heap regions put it at the lower one.
// ---------------------------------------------------------------------

class BoundaryTieTest : public ::testing::TestWithParam<StoreBackend>
{
  protected:
    obs::RingBufferSink ring_;
    std::unique_ptr<MemoryModel> mm_;
    PointerValue x, y; // stack: x (lower id) directly above y
    PointerValue a, b; // heap: a (lower id) directly below b

    /** @p profile's memory config on the parameter's backend, traced,
     *  with both adjacent pairs allocated. */
    void
    make(const char *profile, bool x_read_only = false)
    {
        MemoryModel::Config cfg = driver::findProfile(profile)->memConfig;
        cfg.storeBackend = GetParam();
        cfg.traceSink = &ring_;
        mm_ = std::make_unique<MemoryModel>(cfg);
        TypeRef i32 = intType(IntKind::Int);
        x = mm_->allocateObject("x", i32, x_read_only, false).value();
        y = mm_->allocateObject("y", i32, false, false).value();
        a = mm_->allocateRegion("a", 16, 16).value();
        b = mm_->allocateRegion("b", 16, 16).value();
        ASSERT_EQ(y.address() + 4, x.address());
        ASSERT_EQ(a.address() + 16, b.address());
    }

    /** The allocation ids carried by traced events of @p kind. */
    std::vector<AllocId>
    idsOf(obs::EventKind kind) const
    {
        std::vector<AllocId> out;
        for (const obs::TraceEvent &e : ring_.snapshot()) {
            if (e.kind == kind)
                out.push_back(e.a);
        }
        return out;
    }

    /** @p p's capability moved to @p addr. */
    static PointerValue
    at(PointerValue p, uint64_t addr)
    {
        p.cap = p.cap->withAddress(addr);
        return p;
    }
};

TEST_P(BoundaryTieTest, IotaCandidatesAreInIdOrder)
{
    make("cerberus");
    // Expose in neither id nor address order.
    for (const PointerValue *p : {&y, &x, &b, &a})
        ASSERT_TRUE(mm_->intFromPtr({}, IntKind::Uintptr, *p).ok());
    EXPECT_EQ(idsOf(obs::EventKind::Expose),
              (std::vector<AllocId>{y.prov.id, x.prov.id, b.prov.id,
                                    a.prov.id}));

    for (auto [lo, hi] : {std::pair{&x, &y}, std::pair{&a, &b}}) {
        uint64_t boundary = std::max(lo->address(), hi->address());
        auto q = mm_->ptrFromInt(
            {}, IntegerValue::ofNum(IntKind::Long,
                                    static_cast<__int128>(boundary)));
        ASSERT_TRUE(q.ok());
        ASSERT_TRUE(q.value().prov.isIota());
        auto [first, second] =
            mm_->snapshot()->iotas.candidates(q.value().prov.id);
        EXPECT_EQ(first, lo->prov.id);
        EXPECT_EQ(second, std::optional<AllocId>(hi->prov.id));
        // Re-exposing through the iota walks both candidates, which
        // are already exposed: the event stream does not grow.
        ASSERT_TRUE(
            mm_->intFromPtr({}, IntKind::Uintptr, q.value()).ok());
    }
    EXPECT_EQ(idsOf(obs::EventKind::Expose).size(), 4u);
}

TEST_P(BoundaryTieTest, ZeroLengthAccessResolvesToLowerId)
{
    make("clang-morello-O0", /*x_read_only=*/true);
    TypeRef empty = ctype::arrayOf(intType(IntKind::Int), 0);
    // Each pointer is the lower-addressed neighbour's one-past
    // pointer, which is also the upper neighbour's base.
    PointerValue below_x = at(y, x.address());
    PointerValue below_b = at(a, b.address());
    // memcmp with n = 0 runs the same access check but witnesses no
    // Load; the zero-size loads below do.
    ASSERT_TRUE(mm_->memcmpOp({}, below_x, below_b, 0).ok());
    ASSERT_TRUE(mm_->load({}, empty, below_x).ok());
    ASSERT_TRUE(mm_->load({}, empty, below_b).ok());
    EXPECT_EQ(idsOf(obs::EventKind::Load),
              (std::vector<AllocId>{x.prov.id, a.prov.id}));
    // The read-only check follows the same resolution: a zero-length
    // store through y's capability lands on const x.
    auto st = mm_->store({}, empty, below_x, MemValue(ArrayValue{}));
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.error().ub, Ub::ModifyingConstObject);
    EXPECT_EQ(st.error().message, "x");
}

INSTANTIATE_TEST_SUITE_P(Backends, BoundaryTieTest,
                         ::testing::Values(StoreBackend::Map,
                                           StoreBackend::Paged),
                         [](const auto &info) {
                             return info.param == StoreBackend::Map
                                        ? "MapStore"
                                        : "PagedStore";
                         });

} // namespace
} // namespace cherisem::mem
