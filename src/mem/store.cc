/**
 * @file
 * The two AbstractStore backends: the reference MapStore (the paper's
 * literal B and C maps) and the PagedStore the profiles run on.
 */
#include "mem/store.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>

namespace cherisem::mem {

namespace {

/** The section 3.5 transition on one recorded slot; true when the
 *  slot actually changed (for the invalidation counters). */
bool
applyInvalidation(CapMeta &m, bool ghost)
{
    if (!m.tag && !m.ghost.tagUnspec)
        return false;
    if (ghost) {
        // Abstract semantics: a representation write over a set tag
        // makes the tag *unspecified*, so optimisations that elide
        // the write stay sound.
        m.ghost.tagUnspec = true;
    } else {
        // Hardware view: the tag is deterministically cleared.
        m.tag = false;
        m.ghost = cap::GhostState{};
    }
    return true;
}

/** Bits [lo, hi) of one 64-bit word, 0 <= lo < hi <= 64. */
uint64_t
wordMask(unsigned lo, unsigned hi)
{
    uint64_t m = ~uint64_t(0) << lo;
    if (hi < 64)
        m &= (uint64_t(1) << hi) - 1;
    return m;
}

bool
bitTest(const uint64_t *ws, unsigned i)
{
    return (ws[i / 64] >> (i % 64)) & 1;
}

void
bitSet(uint64_t *ws, unsigned i)
{
    ws[i / 64] |= uint64_t(1) << (i % 64);
}

void
bitClear(uint64_t *ws, unsigned i)
{
    ws[i / 64] &= ~(uint64_t(1) << (i % 64));
}

void
maskSet(uint64_t *ws, unsigned lo, unsigned hi)
{
    while (lo < hi) {
        unsigned b = lo % 64;
        unsigned take = std::min(hi - lo, 64 - b);
        ws[lo / 64] |= wordMask(b, b + take);
        lo += take;
    }
}

void
maskClear(uint64_t *ws, unsigned lo, unsigned hi)
{
    while (lo < hi) {
        unsigned b = lo % 64;
        unsigned take = std::min(hi - lo, 64 - b);
        ws[lo / 64] &= ~wordMask(b, b + take);
        lo += take;
    }
}

/** All bits of [lo, hi) set? */
bool
maskAll(const uint64_t *ws, unsigned lo, unsigned hi)
{
    while (lo < hi) {
        unsigned b = lo % 64;
        unsigned take = std::min(hi - lo, 64 - b);
        uint64_t m = wordMask(b, b + take);
        if ((ws[lo / 64] & m) != m)
            return false;
        lo += take;
    }
    return true;
}

/** No bit of [lo, hi) set? */
bool
maskNone(const uint64_t *ws, unsigned lo, unsigned hi)
{
    while (lo < hi) {
        unsigned b = lo % 64;
        unsigned take = std::min(hi - lo, 64 - b);
        if (ws[lo / 64] & wordMask(b, b + take))
            return false;
        lo += take;
    }
    return true;
}

/** Call @p f(i) for every set bit i of [lo, hi), in ascending or
 *  descending order. */
template <typename F>
void
forEachSetBit(const uint64_t *ws, unsigned lo, unsigned hi,
              bool descending, F &&f)
{
    if (lo >= hi)
        return;
    unsigned w0 = lo / 64, w1 = (hi - 1) / 64;
    auto bits = [&](unsigned w) {
        unsigned a = w == w0 ? lo % 64 : 0;
        unsigned b = w == w1 ? (hi - 1) % 64 + 1 : 64;
        return ws[w] & wordMask(a, b);
    };
    if (!descending) {
        for (unsigned w = w0; w <= w1; ++w) {
            for (uint64_t m = bits(w); m; m &= m - 1)
                f(w * 64 + static_cast<unsigned>(std::countr_zero(m)));
        }
        return;
    }
    for (unsigned w = w1 + 1; w-- > w0;) {
        for (uint64_t m = bits(w); m;) {
            unsigned top = 63 - static_cast<unsigned>(std::countl_zero(m));
            f(w * 64 + top);
            m &= ~(uint64_t(1) << top);
        }
    }
}

/** Bits [lo, lo+k) as the low bits of a word, 1 <= k <= 64. */
uint64_t
getBits(const uint64_t *ws, unsigned lo, unsigned k)
{
    unsigned w = lo / 64, b = lo % 64;
    uint64_t v = ws[w] >> b;
    if (b + k > 64)
        v |= ws[w + 1] << (64 - b);
    return k == 64 ? v : v & ((uint64_t(1) << k) - 1);
}

/** Set bits [lo, lo+k) to the low k bits of @p v, 1 <= k <= 64. */
void
putBits(uint64_t *ws, unsigned lo, unsigned k, uint64_t v)
{
    unsigned w = lo / 64, b = lo % 64;
    uint64_t m = k == 64 ? ~uint64_t(0) : (uint64_t(1) << k) - 1;
    v &= m;
    ws[w] = (ws[w] & ~(m << b)) | (v << b);
    if (b + k > 64) {
        uint64_t m1 = (uint64_t(1) << (b + k - 64)) - 1;
        ws[w + 1] = (ws[w + 1] & ~m1) | (v >> (64 - b));
    }
}

/** Bit-level memmove of @p n bits: overlap-safe when @p dst and
 *  @p src are the same array (a word is read whole before written,
 *  and words go in the safe direction). */
void
copyBits(uint64_t *dst, unsigned dlo, const uint64_t *src, unsigned slo,
         unsigned n)
{
    if (dst == src && dlo > slo) {
        for (unsigned i = n; i > 0;) {
            unsigned k = std::min(i, 64u);
            i -= k;
            putBits(dst, dlo + i, k, getBits(src, slo + i, k));
        }
    } else {
        for (unsigned i = 0; i < n;) {
            unsigned k = std::min(n - i, 64u);
            putBits(dst, dlo + i, k, getBits(src, slo + i, k));
            i += k;
        }
    }
}

/**
 * One heavy-plane entry: a heavy byte's provenance and pointer index
 * packed in 8 bytes.  Bits 0-1 hold the provenance kind, bits 2-7 the
 * pointer index plus one (0: no index), bits 8-63 the provenance id.
 * Consecutive bytes of one capability representation therefore differ
 * by exactly one index step.
 */
constexpr unsigned kIndexShift = 2;
constexpr unsigned kIdShift = 8;
constexpr uint64_t kIndexStep = uint64_t(1) << kIndexShift;

uint64_t
packHeavy(const Provenance &prov, std::optional<uint32_t> index)
{
    assert(prov.id >> (64 - kIdShift) == 0 &&
           "provenance id too wide for the heavy plane");
    assert((!index || *index < 63) &&
           "pointer index too wide for the heavy plane");
    uint64_t e = static_cast<uint64_t>(prov.kind) | prov.id << kIdShift;
    if (index)
        e |= uint64_t(*index + 1) << kIndexShift;
    return e;
}

Provenance
heavyProv(uint64_t e)
{
    return Provenance{static_cast<Provenance::Kind>(e & 3), e >> kIdShift};
}

std::optional<uint32_t>
heavyIndex(uint64_t e)
{
    uint32_t i = static_cast<uint32_t>(e >> kIndexShift) & 63;
    if (i == 0)
        return std::nullopt;
    return i - 1;
}

} // namespace

// ---------------------------------------------------------------------
// MapStore.
// ---------------------------------------------------------------------

bool
MapStore::readScalarClean(uint64_t addr, unsigned n, uint8_t *out) const
{
    auto it = bytes_.lower_bound(addr);
    for (unsigned i = 0; i < n; ++i, ++it) {
        if (it == bytes_.end() || it->first != addr + i)
            return false;
        const AbsByte &b = it->second;
        if (!b.value || !b.prov.isEmpty() || b.index)
            return false;
        out[i] = *b.value;
    }
    ++stats_.rangeReads;
    stats_.bytesRead += n;
    return true;
}

void
MapStore::readBytes(uint64_t addr, uint64_t n, AbsByte *out) const
{
    ++stats_.rangeReads;
    stats_.bytesRead += n;
    uint64_t end = rangeEnd(addr, n);
    for (uint64_t i = 0; i < n; ++i)
        out[i] = AbsByte{};
    for (auto it = bytes_.lower_bound(addr);
         it != bytes_.end() && it->first < end; ++it) {
        out[it->first - addr] = it->second;
    }
}

void
MapStore::writeBytes(uint64_t addr, const AbsByte *src, uint64_t n)
{
    ++stats_.rangeWrites;
    stats_.bytesWritten += n;
    for (uint64_t i = 0; i < n; ++i)
        bytes_[addr + i] = src[i];
}

void
MapStore::fillRange(uint64_t addr, uint64_t n, const AbsByte &b)
{
    ++stats_.rangeFills;
    stats_.bytesWritten += n;
    for (uint64_t i = 0; i < n; ++i)
        bytes_[addr + i] = b;
}

void
MapStore::clearRange(uint64_t addr, uint64_t n)
{
    uint64_t end = rangeEnd(addr, n);
    bytes_.erase(bytes_.lower_bound(addr), bytes_.lower_bound(end));
}

void
MapStore::copyRange(uint64_t dst, uint64_t src, uint64_t n)
{
    ++stats_.rangeCopies;
    stats_.bytesCopied += n;
    // Stage through a temporary: overlap-safe in either direction.
    std::vector<AbsByte> tmp(n);
    uint64_t end = rangeEnd(src, n);
    for (auto it = bytes_.lower_bound(src);
         it != bytes_.end() && it->first < end; ++it) {
        tmp[it->first - src] = it->second;
    }
    for (uint64_t i = 0; i < n; ++i)
        bytes_[dst + i] = tmp[i];
}

std::optional<CapMeta>
MapStore::capMetaAt(uint64_t slot) const
{
    assert(slot % capSize_ == 0);
    ++stats_.capMetaReads;
    auto it = capMeta_.find(slot);
    if (it == capMeta_.end())
        return std::nullopt;
    return it->second;
}

void
MapStore::setCapMeta(uint64_t slot, const CapMeta &m)
{
    assert(slot % capSize_ == 0);
    ++stats_.capMetaWrites;
    capMeta_[slot] = m;
}

void
MapStore::eraseCapMeta(uint64_t slot)
{
    assert(slot % capSize_ == 0);
    ++stats_.capMetaWrites;
    capMeta_.erase(slot);
}

uint64_t
MapStore::invalidateCapRange(uint64_t addr, uint64_t n, bool ghost)
{
    uint64_t first = addr / capSize_ * capSize_;
    uint64_t end = rangeEnd(addr, n);
    uint64_t count = 0;
    for (auto it = capMeta_.lower_bound(first);
         it != capMeta_.end() && it->first < end; ++it) {
        if (applyInvalidation(it->second, ghost))
            ++count;
    }
    return count;
}

void
MapStore::forEachCapInRange(
    uint64_t addr, uint64_t n,
    const std::function<void(uint64_t, CapMeta &)> &visit)
{
    uint64_t first = addr / capSize_ * capSize_;
    uint64_t end = rangeEnd(addr, n);
    for (auto it = capMeta_.lower_bound(first);
         it != capMeta_.end() && it->first < end; ++it) {
        visit(it->first, it->second);
    }
}

/** Deep copies of the literal B and C maps: the O(n) oracle the
 *  equivalence soak diffs the COW backend against. */
struct MapStore::Snapshot final : StoreSnapshot
{
    std::map<uint64_t, AbsByte> bytes;
    std::map<uint64_t, CapMeta> capMeta;
};

StoreSnapshotPtr
MapStore::snapshot() const
{
    auto snap = std::make_shared<Snapshot>();
    snap->bytes = bytes_;
    snap->capMeta = capMeta_;
    snap->stats = stats_;
    return snap;
}

void
MapStore::restore(const StoreSnapshotPtr &snap)
{
    auto *s = dynamic_cast<const Snapshot *>(snap.get());
    assert(s && "MapStore snapshot restored into a MapStore");
    bytes_ = s->bytes;
    capMeta_ = s->capMeta;
    stats_ = s->stats;
}

// ---------------------------------------------------------------------
// PagedStore.
// ---------------------------------------------------------------------

PagedStore::PagedStore(unsigned cap_size)
    : AbstractStore(cap_size),
      slotsPerPage_(static_cast<unsigned>(kPageBytes) / cap_size),
      capShift_(static_cast<unsigned>(std::countr_zero(cap_size)))
{
    // The tag granule must be a power of two tiling a page exactly so
    // a slot never straddles two pages (and slot arithmetic can be
    // mask-and-shift, not division).
    assert(std::has_single_bit(cap_size));
    assert(kPageBytes % cap_size == 0);
}

bool
PagedStore::invalidateSlotMeta(CapMeta &m, bool ghost)
{
    return applyInvalidation(m, ghost);
}

PagedStore::Page *
PagedStore::findPage(uint64_t index) const
{
    if (index == cachedIndex_)
        return cachedPage_;
    auto it = pages_.find(index);
    if (it == pages_.end())
        return nullptr;
    cachedIndex_ = index;
    cachedPage_ = it->second.get();
    cachedWritable_ = !maybeShared_ || it->second.use_count() == 1;
    return cachedPage_;
}

PagedStore::Page &
PagedStore::ensureUnique(uint64_t index, std::shared_ptr<Page> &entry)
{
    if (maybeShared_ && entry.use_count() > 1) {
        // Copy-before-write: the page is aliased by at least one
        // snapshot.  The old page stays alive (and immutable) behind
        // the snapshot's reference.
        entry = std::make_shared<Page>(*entry);
        ++cowClones_;
    }
    cachedIndex_ = index;
    cachedPage_ = entry.get();
    cachedWritable_ = true;
    return *entry;
}

PagedStore::Page &
PagedStore::touchPage(uint64_t index)
{
    if (index == cachedIndex_ && cachedWritable_)
        return *cachedPage_;
    auto it = pages_.find(index);
    if (it == pages_.end()) {
        it = pages_.emplace(index,
                            std::make_shared<Page>(slotsPerPage_))
                 .first;
        ++stats_.pagesAllocated;
    }
    return ensureUnique(index, it->second);
}

PagedStore::Page::Page(const Page &other)
    : meta(other.meta), metaPresent(other.metaPresent)
{
    std::memcpy(value, other.value, sizeof(value));
    std::memcpy(present, other.present, sizeof(present));
    std::memcpy(heavy, other.heavy, sizeof(heavy));
    // Only blocks holding a heavy byte carry anything readable.
    for (unsigned w = 0; w < kMaskWords; ++w) {
        if (heavy[w]) {
            std::memcpy(heavyBlock(w), other.heavyBlocks[w].get(),
                        64 * sizeof(uint64_t));
        }
    }
}

void
PagedStore::assembleBytes(const Page *p, unsigned off, unsigned n,
                          AbsByte *out)
{
    for (unsigned j = 0; j < n; ++j) {
        unsigned o = off + j;
        AbsByte b;
        if (bitTest(p->present, o))
            b.value = p->value[o];
        if (bitTest(p->heavy, o)) {
            uint64_t e = p->heavyBlocks[o / 64][o % 64];
            b.prov = heavyProv(e);
            b.index = heavyIndex(e);
        }
        out[j] = b;
    }
}

void
PagedStore::depositBytes(Page &p, unsigned off, unsigned n,
                         const AbsByte *src)
{
    for (unsigned j = 0; j < n; ++j) {
        unsigned o = off + j;
        const AbsByte &b = src[j];
        if (b.value) {
            bitSet(p.present, o);
            p.value[o] = *b.value;
        } else {
            bitClear(p.present, o);
        }
        if (!b.prov.isEmpty() || b.index) {
            bitSet(p.heavy, o);
            p.heavyBlock(o / 64)[o % 64] = packHeavy(b.prov, b.index);
        } else {
            bitClear(p.heavy, o);
        }
    }
}

void
PagedStore::moveBytes(Page &dp, unsigned doff, const Page *sp,
                      unsigned soff, unsigned n)
{
    if (!sp) {
        // Absent source page: every byte reads as AbsByte{}.
        maskClear(dp.present, doff, doff + n);
        maskClear(dp.heavy, doff, doff + n);
        return;
    }
    // dp and sp may be the same page with overlapping spans: every
    // step below is a memmove in its own right.
    std::memmove(dp.value + doff, sp->value + soff, n);
    copyBits(dp.present, doff, sp->present, soff, n);
    // Entries move only for heavy source bytes (the only readable
    // ones), high-to-low when that is the overlap-safe order.
    forEachSetBit(sp->heavy, soff, soff + n, sp == &dp && doff > soff,
                  [&](unsigned so) {
                      unsigned d = doff + (so - soff);
                      dp.heavyBlock(d / 64)[d % 64] =
                          sp->heavyBlocks[so / 64][so % 64];
                  });
    copyBits(dp.heavy, doff, sp->heavy, soff, n);
}

void
PagedStore::readCapRepr(uint64_t addr, unsigned n, uint8_t *raw,
                        bool *all_present, Provenance *prov,
                        bool *prov_ok) const
{
    assert(n >= 1 && n <= 16);
    unsigned off = static_cast<unsigned>(addr % kPageBytes);
    if (off % 64 + n > 64) {
        // Straddles a plane block (or a page): only an unaligned
        // representation can.
        AbstractStore::readCapRepr(addr, n, raw, all_present, prov,
                                   prov_ok);
        return;
    }
    ++stats_.rangeReads;
    stats_.bytesRead += n;
    const Page *p = findPage(addr / kPageBytes);
    if (!p) {
        std::memset(raw, 0, n);
        *all_present = false;
        *prov = Provenance::empty();
        *prov_ok = false;
        return;
    }
    std::memcpy(raw, p->value + off, n);
    *all_present = maskAll(p->present, off, off + n);
    if (!*all_present) {
        for (unsigned i = 0; i < n; ++i) {
            if (!bitTest(p->present, off + i))
                raw[i] = 0;
        }
    }
    if (!bitTest(p->heavy, off)) {
        // Byte 0 has no pointer index, so the bytes are no intact
        // capability representation.
        *prov = Provenance::empty();
        *prov_ok = false;
        return;
    }
    const uint64_t *e = p->heavyBlocks[off / 64].get() + off % 64;
    *prov = heavyProv(e[0]);
    *prov_ok = heavyIndex(e[0]) == 0u && maskAll(p->heavy, off, off + n);
    for (unsigned i = 1; *prov_ok && i < n; ++i)
        *prov_ok = e[i] == e[0] + i * kIndexStep;
}

void
PagedStore::writeCapRepr(uint64_t addr, const uint8_t *raw, unsigned n,
                         const Provenance &prov)
{
    assert(n <= 16);
    unsigned off = static_cast<unsigned>(addr % kPageBytes);
    if (off % 64 + n > 64) {
        AbstractStore::writeCapRepr(addr, raw, n, prov);
        return;
    }
    ++stats_.rangeWrites;
    stats_.bytesWritten += n;
    Page &p = touchPage(addr / kPageBytes);
    std::memcpy(p.value + off, raw, n);
    maskSet(p.present, off, off + n);
    maskSet(p.heavy, off, off + n);
    uint64_t *e = p.heavyBlock(off / 64) + off % 64;
    uint64_t e0 = packHeavy(prov, 0);
    for (unsigned i = 0; i < n; ++i)
        e[i] = e0 + i * kIndexStep;
}

void
PagedStore::readBytes(uint64_t addr, uint64_t n, AbsByte *out) const
{
    ++stats_.rangeReads;
    stats_.bytesRead += n;
    uint64_t i = 0;
    while (i < n) {
        uint64_t a = addr + i;
        uint64_t off = a % kPageBytes;
        uint64_t chunk = std::min(n - i, kPageBytes - off);
        if (const Page *p = findPage(a / kPageBytes)) {
            assembleBytes(p, static_cast<unsigned>(off),
                          static_cast<unsigned>(chunk), out + i);
        } else {
            std::fill_n(out + i, chunk, AbsByte{});
        }
        i += chunk;
    }
}

void
PagedStore::writeBytes(uint64_t addr, const AbsByte *src, uint64_t n)
{
    ++stats_.rangeWrites;
    stats_.bytesWritten += n;
    uint64_t i = 0;
    while (i < n) {
        uint64_t a = addr + i;
        uint64_t off = a % kPageBytes;
        uint64_t chunk = std::min(n - i, kPageBytes - off);
        Page &p = touchPage(a / kPageBytes);
        depositBytes(p, static_cast<unsigned>(off),
                     static_cast<unsigned>(chunk), src + i);
        i += chunk;
    }
}

void
PagedStore::fillRange(uint64_t addr, uint64_t n, const AbsByte &b)
{
    ++stats_.rangeFills;
    stats_.bytesWritten += n;
    bool heavy = !b.prov.isEmpty() || b.index.has_value();
    uint64_t i = 0;
    while (i < n) {
        uint64_t a = addr + i;
        uint64_t off = a % kPageBytes;
        uint64_t chunk = std::min(n - i, kPageBytes - off);
        unsigned lo = static_cast<unsigned>(off);
        unsigned hi = static_cast<unsigned>(off + chunk);
        Page &p = touchPage(a / kPageBytes);
        if (b.value) {
            maskSet(p.present, lo, hi);
            std::memset(p.value + lo, *b.value, chunk);
        } else {
            maskClear(p.present, lo, hi);
        }
        if (heavy) {
            maskSet(p.heavy, lo, hi);
            uint64_t e = packHeavy(b.prov, b.index);
            for (unsigned o = lo; o < hi; ++o)
                p.heavyBlock(o / 64)[o % 64] = e;
        } else {
            maskClear(p.heavy, lo, hi);
        }
        i += chunk;
    }
}

void
PagedStore::clearRange(uint64_t addr, uint64_t n)
{
    uint64_t i = 0;
    while (i < n) {
        uint64_t a = addr + i;
        uint64_t off = a % kPageBytes;
        uint64_t chunk = std::min(n - i, kPageBytes - off);
        // Absent pages are already uninitialised: skip without
        // materialising them.  Likewise skip (and leave shared) a
        // page whose range is already clear.
        auto it = pages_.find(a / kPageBytes);
        if (it != pages_.end()) {
            unsigned lo = static_cast<unsigned>(off);
            unsigned hi = static_cast<unsigned>(off + chunk);
            const Page *ro = it->second.get();
            bool unique = !maybeShared_ || it->second.use_count() == 1;
            if (unique || !maskNone(ro->present, lo, hi) ||
                !maskNone(ro->heavy, lo, hi)) {
                Page &p = ensureUnique(it->first, it->second);
                maskClear(p.present, lo, hi);
                maskClear(p.heavy, lo, hi);
            }
        }
        i += chunk;
    }
}

void
PagedStore::copyRange(uint64_t dst, uint64_t src, uint64_t n)
{
    ++stats_.rangeCopies;
    stats_.bytesCopied += n;
    if (dst == src)
        return;
    // Page-chunked, no staging: chunks go low-to-high unless dst
    // overlaps the tail of src, in which case high-to-low, so no chunk
    // reads a byte an earlier chunk already overwrote (memmove).
    // moveBytes itself is overlap-safe within a chunk.
    bool backward = dst > src && dst - src < n;
    uint64_t i = backward ? n : 0;
    while (backward ? i > 0 : i < n) {
        uint64_t chunk;
        if (backward) {
            // Bytes left on the pages holding src+i-1 and dst+i-1.
            chunk = std::min({i, (src + i - 1) % kPageBytes + 1,
                              (dst + i - 1) % kPageBytes + 1});
            i -= chunk;
        } else {
            chunk = std::min({n - i, kPageBytes - (src + i) % kPageBytes,
                              kPageBytes - (dst + i) % kPageBytes});
        }
        uint64_t sa = src + i;
        uint64_t da = dst + i;
        const Page *sp = findPage(sa / kPageBytes);
        Page &dp = touchPage(da / kPageBytes);
        moveBytes(dp, static_cast<unsigned>(da % kPageBytes), sp,
                  static_cast<unsigned>(sa % kPageBytes),
                  static_cast<unsigned>(chunk));
        if (!backward)
            i += chunk;
    }
}

std::optional<CapMeta>
PagedStore::capMetaAt(uint64_t slot) const
{
    assert(slot % capSize_ == 0);
    ++stats_.capMetaReads;
    const Page *p = findPage(slot / kPageBytes);
    if (!p)
        return std::nullopt;
    unsigned s = static_cast<unsigned>((slot % kPageBytes) / capSize_);
    if (!p->metaPresent[s])
        return std::nullopt;
    return p->meta[s];
}

void
PagedStore::setCapMeta(uint64_t slot, const CapMeta &m)
{
    assert(slot % capSize_ == 0);
    ++stats_.capMetaWrites;
    Page &p = touchPage(slot / kPageBytes);
    unsigned s = static_cast<unsigned>((slot % kPageBytes) / capSize_);
    p.meta[s] = m;
    p.metaPresent[s] = 1;
}

void
PagedStore::eraseCapMeta(uint64_t slot)
{
    assert(slot % capSize_ == 0);
    ++stats_.capMetaWrites;
    // Read through the page cache first: the hot caller
    // (copyBytesAndMeta) sweeps every slot of a range, and the common
    // slot has no metadata — that case must stay a cached read, not a
    // hash lookup.  Only clone a shared page when there is metadata
    // to erase.
    if (const Page *p = findPage(slot / kPageBytes)) {
        unsigned s =
            static_cast<unsigned>((slot % kPageBytes) / capSize_);
        if (p->metaPresent[s]) {
            Page &wp = touchPage(slot / kPageBytes);
            wp.metaPresent[s] = 0;
            wp.meta[s] = CapMeta{};
        }
    }
}

uint64_t
PagedStore::invalidateCapRange(uint64_t addr, uint64_t n, bool ghost)
{
    uint64_t first = addr / capSize_ * capSize_;
    uint64_t end = rangeEnd(addr, n);
    uint64_t count = 0;
    for (uint64_t slot = first; slot < end;) {
        auto it = pages_.find(slot / kPageBytes);
        if (it == pages_.end()) {
            // Skip to the next page boundary.
            uint64_t next = (slot / kPageBytes + 1) * kPageBytes;
            slot = next > slot ? next : end;
            continue;
        }
        Page *p = it->second.get();
        bool unique = !maybeShared_ || it->second.use_count() == 1;
        uint64_t page_end =
            std::min(end, (slot / kPageBytes + 1) * kPageBytes);
        for (; slot < page_end; slot += capSize_) {
            unsigned s = static_cast<unsigned>((slot % kPageBytes) /
                                               capSize_);
            if (!p->metaPresent[s])
                continue;
            // Clone lazily: only once a slot would actually change
            // (the common page has no live tags to transition).
            if (!p->meta[s].tag && !p->meta[s].ghost.tagUnspec)
                continue;
            if (!unique) {
                p = &ensureUnique(it->first, it->second);
                unique = true;
            }
            applyInvalidation(p->meta[s], ghost);
            ++count;
        }
    }
    return count;
}

void
PagedStore::forEachCapInRange(
    uint64_t addr, uint64_t n,
    const std::function<void(uint64_t, CapMeta &)> &visit)
{
    uint64_t end = rangeEnd(addr, n);
    for (auto &[index, entry] : pages_) {
        uint64_t page_base = index * kPageBytes;
        if (page_base >= end || page_base + kPageBytes <= addr)
            continue;
        // The visitor gets a mutable CapMeta& (the revocation sweep
        // clears tags through it), so a shared page must be cloned
        // before the first slot it visits.  Replacing the mapped
        // shared_ptr does not invalidate the map iteration.
        Page *page = entry.get();
        bool unique = !maybeShared_ || entry.use_count() == 1;
        for (unsigned s = 0; s < slotsPerPage_; ++s) {
            if (!page->metaPresent[s])
                continue;
            uint64_t slot = page_base + uint64_t(s) * capSize_;
            if (slot + capSize_ <= addr || slot >= end)
                continue;
            if (!unique) {
                page = &ensureUnique(index, entry);
                unique = true;
            }
            visit(slot, page->meta[s]);
        }
    }
}

/** A copy of the page *table*: every page's refcount goes up by one,
 *  no page contents are copied.  Pages reachable from a snapshot are
 *  immutable — every mutating primitive clones first. */
struct PagedStore::Snapshot final : StoreSnapshot
{
    std::unordered_map<uint64_t, std::shared_ptr<Page>> pages;
};

StoreSnapshotPtr
PagedStore::snapshot() const
{
    auto snap = std::make_shared<Snapshot>();
    snap->pages = pages_;
    snap->stats = stats_;
    // Every live page is now shared with the snapshot; the next write
    // through the cache must go via touchPage() and clone.
    cachedWritable_ = false;
    maybeShared_ = true;
    return snap;
}

void
PagedStore::restore(const StoreSnapshotPtr &snap)
{
    auto *s = dynamic_cast<const Snapshot *>(snap.get());
    assert(s && "PagedStore snapshot restored into a PagedStore");
    pages_ = s->pages;
    stats_ = s->stats;
    // Pages the diverged run cloned are dropped here; pages it never
    // touched come back shared (refcount >= 2: us + the snapshot).
    cachedIndex_ = ~uint64_t(0);
    cachedPage_ = nullptr;
    cachedWritable_ = false;
    maybeShared_ = true;
}

uint64_t
PagedStore::sharedPages() const
{
    uint64_t n = 0;
    for (const auto &[index, entry] : pages_) {
        (void)index;
        if (entry.use_count() > 1)
            ++n;
    }
    return n;
}

// ---------------------------------------------------------------------
// Factory.
// ---------------------------------------------------------------------

std::unique_ptr<AbstractStore>
makeStore(StoreBackend backend, unsigned cap_size)
{
    switch (backend) {
      case StoreBackend::Map:
        return std::make_unique<MapStore>(cap_size);
      case StoreBackend::Paged:
        return std::make_unique<PagedStore>(cap_size);
    }
    return std::make_unique<PagedStore>(cap_size);
}

const char *
storeBackendName(StoreBackend backend)
{
    return backend == StoreBackend::Map ? "map" : "paged";
}

} // namespace cherisem::mem
