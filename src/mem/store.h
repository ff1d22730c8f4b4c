/**
 * @file
 * The abstract store layer under the memory object model.
 *
 * The paper keeps the memory component of the state as two maps
 * (section 4.3):
 *
 *     M = B x C        B : Addr -> AbsByte
 *                      C : Addr -> bool x ghost_state
 *
 * AbstractStore is exactly that object, exposed as a narrow,
 * range-based interface so the rest of the semantics never touches a
 * concrete container.  Two backends implement it:
 *
 *  - MapStore: the literal `std::map` transcription of B and C.  Kept
 *    as the reference backend / differential oracle: slow (one
 *    red-black-tree lookup per byte) but obviously faithful.
 *  - PagedStore: sparse 4 KiB pages keyed by page index, each a raw
 *    value plane, presence/heavy bitmasks, a packed provenance plane
 *    and a CapMeta array, with a one-entry last-page cache.  This is
 *    what every implementation profile runs by default.
 *
 * Invariants every backend must uphold (and the store-equivalence
 * test checks):
 *
 *  - A byte never written reads back as the uninitialised AbsByte{}
 *    (empty provenance, no value, no pointer index).
 *  - Capability metadata lives only at capSize()-aligned slots, and
 *    "no metadata recorded" is observably distinct from "metadata
 *    recorded with a clear tag": the ghost-state rule of section 3.5
 *    (a byte-wise capability copy has an *unspecified* tag) keys off
 *    that distinction.
 *  - invalidateCapRange applies the section 3.5 transition to every
 *    slot overlapping the range: ghost mode marks set tags
 *    unspecified; hardware mode clears them deterministically.
 *  - copyRange is overlap-safe in both directions (memmove
 *    semantics) for the abstract bytes.
 */
#ifndef CHERISEM_MEM_STORE_H
#define CHERISEM_MEM_STORE_H

#include <cassert>
#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "mem/mem_value.h"

namespace cherisem::mem {

/** Which concrete backend a MemoryModel runs on. */
enum class StoreBackend { Map, Paged };

/** Store-level counters (nested into MemStats). */
struct StoreStats
{
    /** PagedStore 4 KiB pages materialised (0 for MapStore). */
    uint64_t pagesAllocated = 0;
    /** Range-primitive invocations. */
    uint64_t rangeReads = 0;
    uint64_t rangeWrites = 0;
    uint64_t rangeCopies = 0;
    uint64_t rangeFills = 0;
    /** Per-op byte totals for the range primitives above. */
    uint64_t bytesRead = 0;
    uint64_t bytesWritten = 0;
    uint64_t bytesCopied = 0;
    /** Capability-metadata primitive invocations. */
    uint64_t capMetaReads = 0;
    uint64_t capMetaWrites = 0;

    bool operator==(const StoreStats &) const = default;
};

/**
 * Opaque snapshot of one store's full (B, C) contents.
 *
 * Backends subclass this with their own representation (MapStore
 * copies the maps outright — the O(n) oracle; PagedStore copies the
 * page *table*, sharing the refcounted pages themselves — O(pages)).
 * A snapshot is immutable once taken and can be restored any number
 * of times, into the store that took it or into another store of the
 * same backend and capSize().
 */
struct StoreSnapshot
{
    virtual ~StoreSnapshot() = default;
    /** Counter state at snapshot time; restore() rewinds stats too so
     *  a restored run is bit-identical to never having diverged. */
    StoreStats stats;
};

using StoreSnapshotPtr = std::shared_ptr<const StoreSnapshot>;

/**
 * The store interface: the `M = B x C` component of the memory state
 * behind range-based primitives.
 *
 * Addresses are plain 64-bit; @p slot arguments must be
 * capSize()-aligned (callers round, backends assert).
 */
class AbstractStore
{
  public:
    explicit AbstractStore(unsigned cap_size) : capSize_(cap_size) {}
    virtual ~AbstractStore() = default;

    virtual const char *name() const = 0;

    /// @name Byte-map (B) primitives.
    /// @{
    /** Read @p n abstract bytes into @p out; never-written addresses
     *  produce the uninitialised AbsByte{}. */
    virtual void readBytes(uint64_t addr, uint64_t n,
                           AbsByte *out) const = 0;
    /** Write @p n abstract bytes from @p src. */
    virtual void writeBytes(uint64_t addr, const AbsByte *src,
                            uint64_t n) = 0;
    /** Write the same abstract byte over [addr, addr+n) (memset). */
    virtual void fillRange(uint64_t addr, uint64_t n,
                           const AbsByte &b) = 0;
    /** Return [addr, addr+n) to the uninitialised state. */
    virtual void clearRange(uint64_t addr, uint64_t n) = 0;
    /** Copy @p n abstract bytes src -> dst; overlap-safe (memmove
     *  semantics).  Bytes only — capability metadata policy stays
     *  with the memory model. */
    virtual void copyRange(uint64_t dst, uint64_t src, uint64_t n) = 0;
    /// @}

    /// @name Capability-metadata (C) primitives.
    /// @{
    /** Metadata at the aligned @p slot; nullopt when none was ever
     *  recorded (distinct from a recorded clear tag, section 3.5). */
    virtual std::optional<CapMeta> capMetaAt(uint64_t slot) const = 0;
    virtual void setCapMeta(uint64_t slot, const CapMeta &m) = 0;
    virtual void eraseCapMeta(uint64_t slot) = 0;
    /**
     * Apply the representation-write transition (section 3.5) to
     * every recorded slot overlapping [addr, addr+n): with @p ghost
     * set, previously set tags become *unspecified* in ghost state;
     * otherwise tags are deterministically cleared (hardware view).
     * Returns the number of slots actually transitioned.
     */
    virtual uint64_t invalidateCapRange(uint64_t addr, uint64_t n,
                                        bool ghost) = 0;
    /**
     * Visit every recorded capability-metadata slot intersecting
     * [addr, addr+n) as (slot, meta&); the visitor may mutate the
     * metadata in place (the CHERIoT revocation sweep clears tags
     * this way).  Pass addr=0, n=~0 to sweep the whole store.
     * Visit order is unspecified.
     */
    virtual void
    forEachCapInRange(uint64_t addr, uint64_t n,
                      const std::function<void(uint64_t, CapMeta &)>
                          &visit) = 0;
    /// @}

    /// @name Scalar fast-path primitives.
    /// The one-virtual-call-per-access interface the memory model's
    /// fast path uses (mem/fast_path.cc).  A byte is *clean* when its
    /// value is present, its provenance is empty, and it carries no
    /// pointer index — i.e. it is exactly AbsByte{empty, v, nullopt},
    /// the representation every plain integer/float store produces.
    /// @{
    /**
     * If every byte of [addr, addr+n) is clean, copy the raw values
     * into @p out and return true; otherwise return false having
     * read nothing.  @p n is at most 16 (one scalar).  Counters are
     * bumped only on success (a false return is always followed by a
     * slow-path read that does its own counting).
     */
    virtual bool readScalarClean(uint64_t addr, unsigned n,
                                 uint8_t *out) const
    {
        (void)addr;
        (void)n;
        (void)out;
        return false;
    }
    /**
     * Write @p n clean bytes from @p src (equivalent to writeBytes of
     * AbsByte{empty, src[i], nullopt}) and apply the representation-
     * write transition to every recorded capability slot overlapping
     * the range (as invalidateCapRange would).  Returns the number of
     * slots transitioned.  Always succeeds.
     */
    virtual uint64_t writeScalarClean(uint64_t addr, const uint8_t *src,
                                      unsigned n, bool ghost)
    {
        AbsByte bs[16];
        for (unsigned i = 0; i < n; ++i)
            bs[i] = AbsByte{Provenance::empty(), src[i], std::nullopt};
        writeBytes(addr, bs, n);
        return invalidateCapRange(addr, n, ghost);
    }
    /// @}

    /// @name Capability-representation primitives.
    /// What a pointer or (u)intptr_t load/store needs of the n <= 16
    /// bytes of one capability representation, without materialising
    /// n AbsBytes.  Counters are exactly those of the readBytes /
    /// writeBytes call each is defined by.
    /// @{
    /**
     * readBytes(addr, n), summarised: @p raw gets the byte values (0
     * for an absent byte), @p all_present whether every byte has a
     * value, @p prov the provenance of byte 0, and @p prov_ok whether
     * every byte i carries that provenance and pointer index i (the
     * bytes are an intact capability representation, PNVI).
     */
    virtual void readCapRepr(uint64_t addr, unsigned n, uint8_t *raw,
                             bool *all_present, Provenance *prov,
                             bool *prov_ok) const
    {
        assert(n >= 1 && n <= 16);
        AbsByte bs[16];
        readBytes(addr, n, bs);
        *all_present = true;
        *prov = bs[0].prov;
        *prov_ok = true;
        for (unsigned i = 0; i < n; ++i) {
            raw[i] = bs[i].value.value_or(0);
            if (!bs[i].value)
                *all_present = false;
            if (!(bs[i].prov == *prov) || bs[i].index != i)
                *prov_ok = false;
        }
    }
    /** writeBytes of AbsByte{prov, raw[i], i} for i < @p n (n <= 16):
     *  a capability representation store. */
    virtual void writeCapRepr(uint64_t addr, const uint8_t *raw,
                              unsigned n, const Provenance &prov)
    {
        assert(n <= 16);
        AbsByte bs[16];
        for (unsigned i = 0; i < n; ++i)
            bs[i] = AbsByte{prov, raw[i], i};
        writeBytes(addr, bs, n);
    }
    /// @}

    /// @name Snapshot / restore.
    /// @{
    /** Capture the full (B, C) contents plus counters.  PagedStore is
     *  O(pages) refcount bumps; MapStore is an O(n) deep copy. */
    virtual StoreSnapshotPtr snapshot() const = 0;
    /** Rewind to @p snap: contents and counters become bit-identical
     *  to the snapshot point.  The snapshot must come from the same
     *  backend with the same capSize(). */
    virtual void restore(const StoreSnapshotPtr &snap) = 0;
    /// @}

    /** Convenience: single-byte write. */
    void writeByte(uint64_t addr, const AbsByte &b)
    {
        writeBytes(addr, &b, 1);
    }
    /** Convenience: allocate-and-return range read. */
    std::vector<AbsByte>
    readBytes(uint64_t addr, uint64_t n) const
    {
        std::vector<AbsByte> out(n);
        readBytes(addr, n, out.data());
        return out;
    }

    unsigned capSize() const { return capSize_; }
    const StoreStats &stats() const { return stats_; }

  protected:
    /** Exclusive end of [addr, addr+n), saturating at 2^64-1. */
    static uint64_t
    rangeEnd(uint64_t addr, uint64_t n)
    {
        return n > ~uint64_t(0) - addr ? ~uint64_t(0) : addr + n;
    }

    unsigned capSize_;
    mutable StoreStats stats_;
};

/**
 * Reference backend: the literal B and C maps of the paper.
 */
class MapStore final : public AbstractStore
{
  public:
    using AbstractStore::AbstractStore;
    using AbstractStore::readBytes;

    const char *name() const override { return "map"; }

    bool readScalarClean(uint64_t addr, unsigned n,
                         uint8_t *out) const override;

    void readBytes(uint64_t addr, uint64_t n,
                   AbsByte *out) const override;
    void writeBytes(uint64_t addr, const AbsByte *src,
                    uint64_t n) override;
    void fillRange(uint64_t addr, uint64_t n, const AbsByte &b) override;
    void clearRange(uint64_t addr, uint64_t n) override;
    void copyRange(uint64_t dst, uint64_t src, uint64_t n) override;

    std::optional<CapMeta> capMetaAt(uint64_t slot) const override;
    void setCapMeta(uint64_t slot, const CapMeta &m) override;
    void eraseCapMeta(uint64_t slot) override;
    uint64_t invalidateCapRange(uint64_t addr, uint64_t n,
                                bool ghost) override;
    void forEachCapInRange(
        uint64_t addr, uint64_t n,
        const std::function<void(uint64_t, CapMeta &)> &visit) override;

    StoreSnapshotPtr snapshot() const override;
    void restore(const StoreSnapshotPtr &snap) override;

  private:
    struct Snapshot; // deep map copies; defined in store.cc

    std::map<uint64_t, AbsByte> bytes_;   // B
    std::map<uint64_t, CapMeta> capMeta_; // C
};

/**
 * Paged backend: sparse 4 KiB pages keyed by page index, fronted by a
 * one-entry last-page cache.
 *
 * Pages store the abstract bytes struct-of-arrays: a raw value plane,
 * a presence bitmask (value recorded), and a *heavy* bitmask marking
 * the bytes that carry provenance or a pointer index, whose
 * out-of-band parts live in a flat heavy plane of packed 8-byte
 * entries (see packHeavy in store.cc).  A clean byte (present and not
 * heavy) is exactly the AbsByte{empty, v, nullopt} every plain
 * integer/float store produces, so the scalar fast path is a
 * word-mask test plus a memcpy against the value plane, and bulk
 * fill/copy moves planes and mask bits, not 32-byte structs.
 *
 * A plane entry (like a value byte) is meaningful only under its set
 * mask bit: clearing a bit is the whole of a clear, and whatever the
 * plane still holds there is never read.  The heavy plane comes in
 * blocks of 64 entries, one per mask word, each allocated
 * uninitialised on the first heavy byte it covers, so a page pays for
 * the plane only where it holds pointer bytes.
 *
 * Pages are refcounted and immutable-when-shared: snapshot() copies
 * the page table (refcount bumps only), and every mutating primitive
 * copies a page before writing iff its refcount is > 1, so forking
 * and restoring whole states costs O(pages touched since the
 * snapshot), never O(footprint).  The discipline is concentrated in
 * touchPage()/ensureUnique(): a `Page &` handed out by either is
 * uniquely owned and safe to mutate; read paths may alias shared
 * pages freely.
 */
class PagedStore final : public AbstractStore
{
  public:
    static constexpr uint64_t kPageBytes = 4096;
    static constexpr unsigned kMaskWords =
        static_cast<unsigned>(kPageBytes / 64);

    explicit PagedStore(unsigned cap_size);
    using AbstractStore::readBytes;

    const char *name() const override { return "paged"; }

    // The scalar fast-path primitives are defined inline: the memory
    // model calls them through a concrete PagedStore* (the class is
    // final, so the calls devirtualise) and per-access call overhead
    // is exactly what they exist to eliminate.  n <= 16 by contract,
    // so a span covers at most two mask words.
    bool
    readScalarClean(uint64_t addr, unsigned n,
                    uint8_t *out) const override
    {
        unsigned off = static_cast<unsigned>(addr % kPageBytes);
        if (off + n > kPageBytes)
            return false; // Page straddle: take the general path.
        uint64_t index = addr / kPageBytes;
        const Page *p =
            index == cachedIndex_ ? cachedPage_ : findPage(index);
        if (!p)
            return false;
        unsigned w = off / 64, b = off % 64;
        if (b + n <= 64) {
            uint64_t m = spanMask(b, n);
            if ((p->present[w] & m) != m || (p->heavy[w] & m))
                return false;
        } else {
            uint64_t m0 = ~uint64_t(0) << b;
            uint64_t m1 = spanMask(0, b + n - 64);
            if ((p->present[w] & m0) != m0 || (p->heavy[w] & m0) ||
                (p->present[w + 1] & m1) != m1 ||
                (p->heavy[w + 1] & m1)) {
                return false;
            }
        }
        std::memcpy(out, p->value + off, n);
        ++stats_.rangeReads;
        stats_.bytesRead += n;
        return true;
    }

    uint64_t
    writeScalarClean(uint64_t addr, const uint8_t *src, unsigned n,
                     bool ghost) override
    {
        unsigned off = static_cast<unsigned>(addr % kPageBytes);
        if (off + n > kPageBytes) {
            // Page straddle: the generic deposit handles chunking and
            // produces the same counters (one range write + one
            // cap-range invalidation).
            return AbstractStore::writeScalarClean(addr, src, n, ghost);
        }
        uint64_t index = addr / kPageBytes;
        // The cache may alias a *shared* page after a snapshot();
        // only write through it when it is known uniquely owned.
        Page &p = index == cachedIndex_ && cachedWritable_
            ? *cachedPage_
            : touchPage(index);
        unsigned w = off / 64, b = off % 64;
        if (b + n <= 64) {
            uint64_t m = spanMask(b, n);
            p.present[w] |= m;
            p.heavy[w] &= ~m;
        } else {
            uint64_t m0 = ~uint64_t(0) << b;
            uint64_t m1 = spanMask(0, b + n - 64);
            p.present[w] |= m0;
            p.present[w + 1] |= m1;
            p.heavy[w] &= ~m0;
            p.heavy[w + 1] &= ~m1;
        }
        std::memcpy(p.value + off, src, n);
        ++stats_.rangeWrites;
        stats_.bytesWritten += n;
        // Inline the cap-slot invalidation: every granule overlapping
        // the footprint lives on this page (pages are granule-aligned)
        // and almost never carries recorded metadata.
        uint64_t first = addr & ~uint64_t(capSize_ - 1);
        uint64_t end = addr + n;
        uint64_t count = 0;
        for (uint64_t slot = first; slot < end; slot += capSize_) {
            unsigned s = static_cast<unsigned>(
                (slot % kPageBytes) >> capShift_);
            if (p.metaPresent[s] &&
                invalidateSlotMeta(p.meta[s], ghost)) {
                ++count;
            }
        }
        return count;
    }

    void readCapRepr(uint64_t addr, unsigned n, uint8_t *raw,
                     bool *all_present, Provenance *prov,
                     bool *prov_ok) const override;
    void writeCapRepr(uint64_t addr, const uint8_t *raw, unsigned n,
                      const Provenance &prov) override;

    void readBytes(uint64_t addr, uint64_t n,
                   AbsByte *out) const override;
    void writeBytes(uint64_t addr, const AbsByte *src,
                    uint64_t n) override;
    void fillRange(uint64_t addr, uint64_t n, const AbsByte &b) override;
    void clearRange(uint64_t addr, uint64_t n) override;
    void copyRange(uint64_t dst, uint64_t src, uint64_t n) override;

    std::optional<CapMeta> capMetaAt(uint64_t slot) const override;
    void setCapMeta(uint64_t slot, const CapMeta &m) override;
    void eraseCapMeta(uint64_t slot) override;
    uint64_t invalidateCapRange(uint64_t addr, uint64_t n,
                                bool ghost) override;
    void forEachCapInRange(
        uint64_t addr, uint64_t n,
        const std::function<void(uint64_t, CapMeta &)> &visit) override;

    StoreSnapshotPtr snapshot() const override;
    void restore(const StoreSnapshotPtr &snap) override;

    /** Pages copied because they were shared at write time (COW
     *  clones).  Deliberately *not* part of StoreStats: a restored
     *  run must be counter-identical to one that never diverged, and
     *  clones happen only on the diverged side. */
    uint64_t cowClones() const { return cowClones_; }
    /** Live pages currently shared with at least one snapshot. */
    uint64_t sharedPages() const;

  private:
    struct Page
    {
        explicit Page(unsigned slots)
            : meta(slots), metaPresent(slots, 0)
        {
        }
        /** COW clone: copies the heavy blocks that hold a heavy byte. */
        Page(const Page &other);
        Page &operator=(const Page &) = delete;

        /** The plane entries of mask word @p w's 64 bytes, allocated
         *  (uninitialised) on first use. */
        uint64_t *
        heavyBlock(unsigned w)
        {
            if (!heavyBlocks[w])
                heavyBlocks[w] = std::make_unique_for_overwrite<uint64_t[]>(64);
            return heavyBlocks[w].get();
        }

        uint8_t value[kPageBytes];        // raw byte plane (masked)
        uint64_t present[kMaskWords] = {}; // bit per byte: value recorded
        uint64_t heavy[kMaskWords] = {};   // bit per byte: prov or index
        // Packed provenance + pointer index per byte (masked by heavy),
        // in blocks of 64 bytes: a set heavy bit implies its block.
        std::unique_ptr<uint64_t[]> heavyBlocks[kMaskWords];
        std::vector<CapMeta> meta;        // one per cap slot
        std::vector<uint8_t> metaPresent;
    };

    /** Mask of @p n bits starting at bit @p b (b + n <= 64, n >= 1). */
    static uint64_t
    spanMask(unsigned b, unsigned n)
    {
        return (~uint64_t(0) >> (64 - n)) << b;
    }

    struct Snapshot; // shared page table copy; defined in store.cc

    /** Existing page or nullptr; never allocates or clones.  The
     *  returned page may be shared — mutate only through touchPage()
     *  or ensureUnique(). */
    Page *findPage(uint64_t index) const;
    /** Uniquely-owned page at @p index: materialises (and counts) a
     *  fresh page, or COW-clones a shared one. */
    Page &touchPage(uint64_t index);
    /** COW-clone @p entry if shared; refreshes the cache.  The
     *  returned reference is uniquely owned. */
    Page &ensureUnique(uint64_t index, std::shared_ptr<Page> &entry);
    /** The section 3.5 representation-write transition on one
     *  recorded slot; true when the slot actually changed. */
    static bool invalidateSlotMeta(CapMeta &m, bool ghost);

    /** Assemble / decompose one in-page range (no counters). */
    static void assembleBytes(const Page *p, unsigned off, unsigned n,
                              AbsByte *out);
    static void depositBytes(Page &p, unsigned off, unsigned n,
                             const AbsByte *src);
    /** memmove @p n abstract bytes from page offset @p soff of @p sp
     *  (nullptr: an absent page, all uninitialised) to @p doff of
     *  @p dp, planes and mask bits alike (no counters). */
    static void moveBytes(Page &dp, unsigned doff, const Page *sp,
                          unsigned soff, unsigned n);

    unsigned slotsPerPage_;
    unsigned capShift_; // log2(capSize_); granule sizes are powers of 2
    std::unordered_map<uint64_t, std::shared_ptr<Page>> pages_;
    // One-entry last-page cache.  Page storage is behind shared_ptr
    // and a map entry is only replaced by a COW clone or restore(),
    // both of which refresh the cache, so the cached pointer stays
    // valid across rehashes.  cachedWritable_ records that the cached
    // page was uniquely owned when cached; snapshot() clears it (every
    // page becomes shared), so a stale `true` is impossible.
    mutable uint64_t cachedIndex_ = ~uint64_t(0);
    mutable Page *cachedPage_ = nullptr;
    mutable bool cachedWritable_ = false;
    // Sticky-true once snapshot() has ever run.  While false, no page
    // can be aliased, so every COW check (a use_count() load that
    // touches the shared_ptr control block) short-circuits and the
    // write path is identical to the pre-COW store.  It never returns
    // to false: we don't track snapshot lifetimes, and the cost once
    // snapshots exist is the COW price by design.
    mutable bool maybeShared_ = false;
    uint64_t cowClones_ = 0;
};

/** Factory used by MemoryModel::Config. */
std::unique_ptr<AbstractStore> makeStore(StoreBackend backend,
                                         unsigned cap_size);

/** Backend name for diagnostics / benchmark labels. */
const char *storeBackendName(StoreBackend backend);

} // namespace cherisem::mem

#endif // CHERISEM_MEM_STORE_H
