/**
 * @file
 * Direct unit tests of the AbstractStore primitives on both backends
 * (page-boundary crossing, overlap-safe copies, the ghost/hard
 * invalidation transition, range visitors).
 *
 * These are the fast-tier complement of the randomized
 * backend-equivalence soak in store_equivalence_test.cc (which runs
 * under the `soak` ctest label).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "mem/store.h"

namespace cherisem::mem {
namespace {

class StorePrimitiveTest
    : public ::testing::TestWithParam<StoreBackend>
{
  protected:
    void SetUp() override { store_ = makeStore(GetParam(), 16); }

    AbsByte
    byteOf(uint8_t v, uint64_t prov_id = 0)
    {
        AbsByte b;
        b.value = v;
        if (prov_id)
            b.prov = Provenance::alloc(prov_id);
        return b;
    }

    std::unique_ptr<AbstractStore> store_;
};

TEST_P(StorePrimitiveTest, UnwrittenBytesReadUninitialised)
{
    std::vector<AbsByte> out = store_->readBytes(0x12345, 8);
    for (const AbsByte &b : out) {
        EXPECT_FALSE(b.value.has_value());
        EXPECT_TRUE(b.prov.isEmpty());
        EXPECT_FALSE(b.index.has_value());
    }
}

TEST_P(StorePrimitiveTest, WriteReadRoundTripAcrossPageBoundary)
{
    // Straddle the 4 KiB page boundary at 0x2000.
    const uint64_t addr = 0x2000 - 5;
    std::vector<AbsByte> in(11);
    for (size_t i = 0; i < in.size(); ++i)
        in[i] = byteOf(static_cast<uint8_t>(0x40 + i), /*prov=*/7);
    store_->writeBytes(addr, in.data(), in.size());

    std::vector<AbsByte> out = store_->readBytes(addr, in.size());
    for (size_t i = 0; i < in.size(); ++i) {
        ASSERT_TRUE(out[i].value.has_value());
        EXPECT_EQ(*out[i].value, 0x40 + i);
        EXPECT_EQ(out[i].prov, Provenance::alloc(7));
    }
    // Neighbours untouched.
    EXPECT_FALSE(store_->readBytes(addr - 1, 1)[0].value.has_value());
    EXPECT_FALSE(
        store_->readBytes(addr + in.size(), 1)[0].value.has_value());
}

TEST_P(StorePrimitiveTest, FillAndClearRange)
{
    store_->fillRange(0x1000, 8192, byteOf(0xAB));
    EXPECT_EQ(*store_->readBytes(0x1000, 1)[0].value, 0xAB);
    EXPECT_EQ(*store_->readBytes(0x2FFF, 1)[0].value, 0xAB);
    store_->clearRange(0x1004, 4096);
    EXPECT_EQ(*store_->readBytes(0x1003, 1)[0].value, 0xAB);
    EXPECT_FALSE(store_->readBytes(0x1004, 1)[0].value.has_value());
    EXPECT_FALSE(store_->readBytes(0x2003, 1)[0].value.has_value());
    EXPECT_EQ(*store_->readBytes(0x2004, 1)[0].value, 0xAB);
}

TEST_P(StorePrimitiveTest, CopyRangeOverlapBothDirections)
{
    for (size_t i = 0; i < 64; ++i)
        store_->writeByte(0x3000 + i, byteOf(static_cast<uint8_t>(i)));
    // Forward overlap (dst > src).
    store_->copyRange(0x3010, 0x3000, 64);
    for (size_t i = 0; i < 64; ++i)
        EXPECT_EQ(*store_->readBytes(0x3010 + i, 1)[0].value, i);
    // Backward overlap (dst < src).
    store_->copyRange(0x3008, 0x3010, 64);
    for (size_t i = 0; i < 64; ++i)
        EXPECT_EQ(*store_->readBytes(0x3008 + i, 1)[0].value, i);
}

TEST_P(StorePrimitiveTest, CapMetaPresenceIsDistinctFromClearTag)
{
    EXPECT_FALSE(store_->capMetaAt(0x4000).has_value());
    store_->setCapMeta(0x4000, CapMeta{});
    ASSERT_TRUE(store_->capMetaAt(0x4000).has_value());
    EXPECT_FALSE(store_->capMetaAt(0x4000)->tag);
    store_->eraseCapMeta(0x4000);
    EXPECT_FALSE(store_->capMetaAt(0x4000).has_value());
}

TEST_P(StorePrimitiveTest, InvalidateGhostVsHard)
{
    store_->setCapMeta(0x5000, CapMeta{true, {}});
    store_->setCapMeta(0x5010, CapMeta{true, {}});
    store_->setCapMeta(0x5020, CapMeta{false, {}});

    // Ghost mode: tags stay set, tagUnspec raised; the recorded-but-
    // clear slot does not transition.
    EXPECT_EQ(store_->invalidateCapRange(0x5005, 0x30, true), 2u);
    EXPECT_TRUE(store_->capMetaAt(0x5000)->tag);
    EXPECT_TRUE(store_->capMetaAt(0x5000)->ghost.tagUnspec);
    EXPECT_TRUE(store_->capMetaAt(0x5010)->ghost.tagUnspec);
    EXPECT_FALSE(store_->capMetaAt(0x5020)->ghost.tagUnspec);

    // Hard mode: deterministic clear of tag and ghost state.
    EXPECT_EQ(store_->invalidateCapRange(0x5000, 0x20, false), 2u);
    EXPECT_FALSE(store_->capMetaAt(0x5000)->tag);
    EXPECT_FALSE(store_->capMetaAt(0x5000)->ghost.tagUnspec);
}

TEST_P(StorePrimitiveTest, ForEachCapInRangeWindows)
{
    for (uint64_t slot = 0x6000; slot < 0x6100; slot += 16)
        store_->setCapMeta(slot, CapMeta{true, {}});

    size_t seen = 0;
    store_->forEachCapInRange(0x6020, 0x40,
                              [&](uint64_t, CapMeta &) { ++seen; });
    EXPECT_EQ(seen, 4u);

    // Whole-store sweep, mutating through the visitor.
    seen = 0;
    store_->forEachCapInRange(0, ~uint64_t(0),
                              [&](uint64_t, CapMeta &m) {
                                  m.tag = false;
                                  ++seen;
                              });
    EXPECT_EQ(seen, 16u);
    EXPECT_FALSE(store_->capMetaAt(0x6000)->tag);
}

// ---------------------------------------------------------------------
// Heavy bytes (provenance / pointer index) and the capability-
// representation primitives.
// ---------------------------------------------------------------------

void
expectSameByte(const AbsByte &a, const AbsByte &b, uint64_t where)
{
    EXPECT_EQ(a.value, b.value) << "value at " << where;
    EXPECT_EQ(a.prov, b.prov) << "provenance at " << where;
    EXPECT_EQ(a.index, b.index) << "pointer index at " << where;
}

/** A mixed byte pattern: absent, clean, and heavy bytes of several
 *  shapes (full capability representations, index-only, prov-only). */
AbsByte
patternByte(uint64_t i)
{
    AbsByte b;
    if (i % 7 == 3)
        return b; // Absent.
    b.value = static_cast<uint8_t>(0x30 + i);
    if (i % 5 == 0)
        return b; // Clean.
    if (i % 11 == 1) {
        b.index = 2; // Index without provenance (a stored null).
    } else if (i % 13 == 2) {
        b.prov = Provenance::iota(5); // Provenance without index.
    } else {
        b.prov = Provenance::alloc(1 + i / 16);
        b.index = static_cast<uint32_t>(i % 16);
    }
    return b;
}

/** What readCapRepr must report, derived from readBytes' answer. */
struct CapReprView
{
    uint8_t raw[16] = {};
    bool allPresent = true;
    Provenance prov;
    bool provOk = true;
};

CapReprView
viewOf(const std::vector<AbsByte> &bs)
{
    CapReprView v;
    v.prov = bs[0].prov;
    for (size_t i = 0; i < bs.size(); ++i) {
        v.raw[i] = bs[i].value ? *bs[i].value : 0;
        v.allPresent = v.allPresent && bs[i].value.has_value();
        v.provOk = v.provOk && bs[i].prov == v.prov &&
            bs[i].index == static_cast<uint32_t>(i);
    }
    return v;
}

CapReprView
readRepr(const AbstractStore &s, uint64_t addr, unsigned n)
{
    CapReprView v;
    s.readCapRepr(addr, n, v.raw, &v.allPresent, &v.prov, &v.provOk);
    return v;
}

void
expectSameView(const CapReprView &a, const CapReprView &b, unsigned n)
{
    for (unsigned i = 0; i < n; ++i)
        EXPECT_EQ(a.raw[i], b.raw[i]) << "raw byte " << i;
    EXPECT_EQ(a.allPresent, b.allPresent);
    EXPECT_EQ(a.prov, b.prov);
    EXPECT_EQ(a.provOk, b.provOk);
}

/** Write the pattern over [lo, hi), then memmove within a shadow copy
 *  and the store alike, and compare every byte of the window. */
void
checkCopy(AbstractStore &s, uint64_t lo, uint64_t hi, uint64_t dst,
          uint64_t src, uint64_t n)
{
    std::vector<AbsByte> shadow(hi - lo);
    for (uint64_t i = 0; i < shadow.size(); ++i)
        shadow[i] = patternByte(i);
    s.clearRange(lo, hi - lo);
    s.writeBytes(lo, shadow.data(), shadow.size());
    std::vector<AbsByte> moved(shadow.begin() + (src - lo),
                               shadow.begin() + (src - lo + n));
    std::copy(moved.begin(), moved.end(), shadow.begin() + (dst - lo));
    s.copyRange(dst, src, n);
    std::vector<AbsByte> got = s.readBytes(lo, hi - lo);
    for (uint64_t i = 0; i < shadow.size(); ++i)
        expectSameByte(got[i], shadow[i], lo + i);
}

TEST_P(StorePrimitiveTest, HeavyCopyAcrossPagesDisjoint)
{
    // Source straddles 0x2000, destination straddles 0x5000 at a
    // different page offset, so chunks split at both boundaries.
    const uint64_t src = 0x2000 - 40, dst = 0x5000 - 17, n = 200;
    std::vector<AbsByte> in(n);
    for (uint64_t i = 0; i < n; ++i)
        in[i] = patternByte(i);
    store_->writeBytes(src, in.data(), n);
    store_->fillRange(dst - 8, n + 16, byteOf(0xEE, /*prov=*/3));
    store_->copyRange(dst, src, n);
    std::vector<AbsByte> got = store_->readBytes(dst, n);
    for (uint64_t i = 0; i < n; ++i)
        expectSameByte(got[i], in[i], dst + i);
    // The fill around the copy is untouched.
    expectSameByte(store_->readBytes(dst - 1, 1)[0],
                   byteOf(0xEE, 3), dst - 1);
    expectSameByte(store_->readBytes(dst + n, 1)[0],
                   byteOf(0xEE, 3), dst + n);
}

TEST_P(StorePrimitiveTest, HeavyCopyAcrossPagesOverlapping)
{
    // Shifts from one byte to more than a page, in both directions,
    // over a window straddling two page boundaries.
    const uint64_t lo = 0x3000 - 300, hi = 0x5000 + 300;
    for (uint64_t shift : {1u, 7u, 16u, 100u, 4095u, 4097u}) {
        SCOPED_TRACE(shift);
        uint64_t n = hi - lo - shift;
        checkCopy(*store_, lo, hi, lo + shift, lo, n); // dst > src
        checkCopy(*store_, lo, hi, lo, lo + shift, n); // dst < src
        // A short move across one boundary only.
        checkCopy(*store_, lo, hi, 0x3000 - 10 + shift, 0x3000 - 10,
                  std::min<uint64_t>(n, 64));
        checkCopy(*store_, lo, hi, 0x3000 - 10, 0x3000 - 10 + shift,
                  std::min<uint64_t>(n, 64));
    }
}

TEST_P(StorePrimitiveTest, ByteStoreBreaksCapRepr)
{
    uint8_t raw[16];
    for (unsigned i = 0; i < 16; ++i)
        raw[i] = static_cast<uint8_t>(0xC0 + i);
    store_->writeCapRepr(0x7000, raw, 16, Provenance::alloc(9));
    CapReprView v = readRepr(*store_, 0x7000, 16);
    EXPECT_TRUE(v.allPresent);
    EXPECT_TRUE(v.provOk);
    EXPECT_EQ(v.prov, Provenance::alloc(9));
    EXPECT_EQ(v.raw[15], 0xCF);

    // A clean byte store into the middle: still present, no longer an
    // intact representation; byte 0 still carries the provenance.
    store_->writeByte(0x7005, byteOf(0x11));
    v = readRepr(*store_, 0x7000, 16);
    EXPECT_TRUE(v.allPresent);
    EXPECT_FALSE(v.provOk);
    EXPECT_EQ(v.prov, Provenance::alloc(9));
    EXPECT_EQ(v.raw[5], 0x11);

    // Overwriting byte 0 drops its provenance too.
    store_->writeCapRepr(0x7000, raw, 16, Provenance::alloc(9));
    store_->writeByte(0x7000, byteOf(0x22));
    v = readRepr(*store_, 0x7000, 16);
    EXPECT_FALSE(v.provOk);
    EXPECT_TRUE(v.prov.isEmpty());

    // A byte of another capability's representation at the same
    // index is caught by the provenance comparison.
    store_->writeCapRepr(0x7000, raw, 16, Provenance::alloc(9));
    store_->writeByte(0x7003, AbsByte{Provenance::alloc(8), 0xC3, 3});
    EXPECT_FALSE(readRepr(*store_, 0x7000, 16).provOk);
}

TEST_P(StorePrimitiveTest, FillAndClearLeaveNoStaleHeavyEntries)
{
    uint8_t raw[16] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16};
    store_->writeCapRepr(0x8000, raw, 16, Provenance::alloc(4));
    store_->writeCapRepr(0x8010, raw, 16, Provenance::alloc(5));

    store_->fillRange(0x8000, 16, byteOf(0xAA));
    for (const AbsByte &b : store_->readBytes(0x8000, 16))
        expectSameByte(b, byteOf(0xAA), 0x8000);
    CapReprView v = readRepr(*store_, 0x8000, 16);
    EXPECT_TRUE(v.allPresent);
    EXPECT_FALSE(v.provOk);
    EXPECT_TRUE(v.prov.isEmpty());

    store_->clearRange(0x8010, 16);
    for (const AbsByte &b : store_->readBytes(0x8010, 16))
        expectSameByte(b, AbsByte{}, 0x8010);

    // Partial rewrites over the cleared and filled bytes: only what
    // was written shows up; the rest stays clean or uninitialised.
    store_->writeBytes(0x8014, std::vector<AbsByte>(4, byteOf(0x55)).data(),
                       4);
    store_->writeByte(0x8002, AbsByte{Provenance::alloc(6), 0x66, 2});
    std::vector<AbsByte> got = store_->readBytes(0x8000, 32);
    for (uint64_t i = 0; i < 32; ++i) {
        AbsByte want;
        if (i < 16)
            want = byteOf(0xAA);
        if (i == 2)
            want = AbsByte{Provenance::alloc(6), 0x66, 2};
        if (i >= 20 && i < 24)
            want = byteOf(0x55);
        expectSameByte(got[i], want, 0x8000 + i);
    }

    // A heavy fill, then a clean copy over part of it.
    store_->fillRange(0x9000, 64, AbsByte{Provenance::alloc(7), 0x77, 1});
    store_->fillRange(0x9100, 16, byteOf(0x88));
    store_->copyRange(0x9010, 0x9100, 16);
    got = store_->readBytes(0x9000, 64);
    for (uint64_t i = 0; i < 64; ++i) {
        expectSameByte(got[i],
                       i >= 16 && i < 32
                           ? byteOf(0x88)
                           : AbsByte{Provenance::alloc(7), 0x77, 1},
                       0x9000 + i);
    }
}

TEST_P(StorePrimitiveTest, HeavyWriteAfterSnapshotIsIsolated)
{
    uint8_t raw[16] = {};
    store_->writeCapRepr(0xA000, raw, 16, Provenance::alloc(1));
    store_->writeByte(0xA020, AbsByte{Provenance::iota(2), 0x20, 5});
    std::vector<AbsByte> before = store_->readBytes(0xA000, 64);
    StoreSnapshotPtr snap = store_->snapshot();

    // Every heavy-writing primitive, on the shared page.  The first
    // write clones it; the clone must carry the heavy bytes it did not
    // overwrite.
    store_->writeCapRepr(0xA000, raw, 16, Provenance::alloc(2));
    expectSameByte(store_->readBytes(0xA020, 1)[0], before[0x20], 0xA020);
    store_->writeByte(0xA021, AbsByte{Provenance::alloc(3), 0x21, 6});
    store_->fillRange(0xA030, 8, AbsByte{Provenance::alloc(4), 0x30, 0});
    store_->copyRange(0xA008, 0xA000, 16);
    store_->clearRange(0xA020, 1);
    EXPECT_FALSE(readRepr(*store_, 0xA000, 16).provOk);

    store_->restore(snap);
    std::vector<AbsByte> after = store_->readBytes(0xA000, 64);
    for (uint64_t i = 0; i < 64; ++i)
        expectSameByte(after[i], before[i], 0xA000 + i);
    CapReprView v = readRepr(*store_, 0xA000, 16);
    EXPECT_TRUE(v.provOk);
    EXPECT_EQ(v.prov, Provenance::alloc(1));
}

TEST_P(StorePrimitiveTest, ReadCapReprAbsentAndPartial)
{
    // Never-written page.
    CapReprView v = readRepr(*store_, 0xB000, 16);
    EXPECT_FALSE(v.allPresent);
    EXPECT_FALSE(v.provOk);
    EXPECT_TRUE(v.prov.isEmpty());
    for (uint8_t r : v.raw)
        EXPECT_EQ(r, 0);

    // Two bytes cleared out of a representation.
    uint8_t raw[16];
    for (unsigned i = 0; i < 16; ++i)
        raw[i] = static_cast<uint8_t>(0x90 + i);
    store_->writeCapRepr(0xC000, raw, 16, Provenance::alloc(8));
    store_->clearRange(0xC003, 2);
    v = readRepr(*store_, 0xC000, 16);
    EXPECT_FALSE(v.allPresent);
    EXPECT_FALSE(v.provOk);
    EXPECT_EQ(v.raw[2], 0x92);
    EXPECT_EQ(v.raw[3], 0);
    EXPECT_EQ(v.raw[4], 0);
    EXPECT_EQ(v.raw[5], 0x95);

    // Provenance and indices intact but values absent: the
    // representation is intact, the bytes are not all present.
    std::vector<AbsByte> bs(16);
    for (unsigned i = 0; i < 16; ++i)
        bs[i] = AbsByte{Provenance::alloc(8), std::nullopt, i};
    bs[7].value = 0x77;
    store_->writeBytes(0xD000, bs.data(), 16);
    v = readRepr(*store_, 0xD000, 16);
    EXPECT_FALSE(v.allPresent);
    EXPECT_TRUE(v.provOk);
    EXPECT_EQ(v.raw[7], 0x77);
    EXPECT_EQ(v.raw[8], 0);
}

TEST_P(StorePrimitiveTest, CapReprMatchesByteInterface)
{
    // Twin stores: one driven through the capability-representation
    // primitives, one through readBytes/writeBytes.  Contents and
    // counters must agree, including page-straddling representations
    // (which take the generic path) and 8-byte (cc64) ones.
    auto twin = makeStore(GetParam(), 16);
    struct Op
    {
        uint64_t addr;
        unsigned n;
        AllocId prov;
    };
    const Op ops[] = {{0xE000, 16, 1},      {0xE010, 8, 2},
                      {0xF000 - 8, 16, 3},  {0xF000 - 3, 8, 4},
                      {0xE004, 16, 0},      {0x10000 - 16, 16, 5}};
    for (const Op &op : ops) {
        uint8_t raw[16];
        std::vector<AbsByte> bs(op.n);
        Provenance prov =
            op.prov ? Provenance::alloc(op.prov) : Provenance::empty();
        for (unsigned i = 0; i < op.n; ++i) {
            raw[i] = static_cast<uint8_t>(op.addr + 3 * i);
            bs[i] = AbsByte{prov, raw[i], i};
        }
        store_->writeCapRepr(op.addr, raw, op.n, prov);
        twin->writeBytes(op.addr, bs.data(), op.n);
        EXPECT_EQ(store_->stats(), twin->stats());
    }
    store_->writeByte(0xE013, byteOf(0x13));
    twin->writeByte(0xE013, byteOf(0x13));

    for (uint64_t addr = 0xDFF8; addr < 0xE030; addr += 4) {
        for (unsigned n : {8u, 16u}) {
            SCOPED_TRACE(addr);
            expectSameView(readRepr(*store_, addr, n),
                           viewOf(twin->readBytes(addr, n)), n);
            EXPECT_EQ(store_->stats(), twin->stats());
        }
    }
    for (uint64_t addr = 0xF000 - 12; addr < 0xF000 + 4; ++addr) {
        SCOPED_TRACE(addr);
        expectSameView(readRepr(*store_, addr, 16),
                       viewOf(twin->readBytes(addr, 16)), 16);
        EXPECT_EQ(store_->stats(), twin->stats());
    }
    std::vector<AbsByte> a = store_->readBytes(0xDFF0, 0x2020);
    std::vector<AbsByte> b = twin->readBytes(0xDFF0, 0x2020);
    for (uint64_t i = 0; i < a.size(); ++i)
        expectSameByte(a[i], b[i], 0xDFF0 + i);
}

INSTANTIATE_TEST_SUITE_P(Backends, StorePrimitiveTest,
                         ::testing::Values(StoreBackend::Map,
                                           StoreBackend::Paged),
                         [](const auto &info) {
                             return std::string(
                                 storeBackendName(info.param));
                         });

} // namespace
} // namespace cherisem::mem
