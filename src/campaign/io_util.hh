/**
 * @file
 * Shared binary-IO layer for every campaign artifact (corpus file,
 * coverage/checkpoint snapshot, bug-ledger records).
 *
 * All formats built on these primitives are little-endian and
 * strictly validated on load: a reader accepts exactly the version
 * its writer emits, the Reader turns any truncation into a
 * sticky error, every count/length is bounded before it sizes an
 * allocation, and enum bytes are range-checked — a corrupt file
 * yields a clean error return, never a crash or a half-loaded
 * object. The per-format layouts are specified in
 * docs/campaign-format.md.
 */

#ifndef DEJAVUZZ_CAMPAIGN_IO_UTIL_HH
#define DEJAVUZZ_CAMPAIGN_IO_UTIL_HH

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>

#include "core/seed.hh"

namespace dejavuzz::campaign::bio {

/** Bounds applied to every count/length read from a file. They cap
 *  what a flipped length byte can make the loader allocate; anything
 *  a real campaign writes sits far below them. */
constexpr uint32_t kMaxStringBytes = 1u << 16;
constexpr uint32_t kMaxVectorItems = 1u << 20;
constexpr uint32_t kMaxPackets = 4096;
constexpr uint32_t kMaxInstrs = 1u << 16;
/** Never reserve more than this many items up front on a read-side
 *  count — grow incrementally instead, so a corrupt count cannot
 *  trigger a huge allocation before the payload read fails. */
constexpr uint32_t kMaxReserveItems = 1024;

// --- little-endian write primitives ---------------------------------------

void putU8(std::ostream &os, uint8_t value);
void putU32(std::ostream &os, uint32_t value);
void putU64(std::ostream &os, uint64_t value);
void putI64(std::ostream &os, int64_t value);
void putString(std::ostream &os, const std::string &text);

// --- strict load-side cursor ----------------------------------------------

/** Load-side cursor that turns any truncation into a sticky error. */
struct Reader
{
    std::istream &is;
    std::string error;

    /** Record the first failure; always returns false. */
    bool fail(const std::string &what);

    bool bytes(void *out, size_t count, const char *what);
    bool u8(uint8_t &out, const char *what);
    bool u32(uint32_t &out, const char *what);
    bool u64(uint64_t &out, const char *what);
    bool i64(int64_t &out, const char *what);
    bool str(std::string &out, const char *what);

    /** Read a count field and bound it by @p limit. */
    bool count(uint32_t &out, uint32_t limit, const char *what);

    /** Read an enum byte and range-check it against [0, limit). */
    template <typename E>
    bool
    enumByte(E &out, unsigned limit, const char *what)
    {
        uint8_t raw = 0;
        if (!u8(raw, what))
            return false;
        if (raw >= limit)
            return fail(std::string("out-of-range ") + what);
        out = static_cast<E>(raw);
        return true;
    }
};

bool readBool(Reader &in, bool &out, const char *what);
bool readIndex(Reader &in, size_t &out, const char *what);

// --- test-case payload ------------------------------------------------------

/** Serialize the complete test case (the corpus entry payload). */
void writeTestCase(std::ostream &os, const core::TestCase &tc);
/** Strictly parse a test case written by writeTestCase(). The
 *  enclosing container checks its own version first. */
bool readTestCase(Reader &in, core::TestCase &tc);

} // namespace dejavuzz::campaign::bio

namespace dejavuzz::campaign {

/**
 * Canonical content hash of a test case: FNV-1a over its
 * writeTestCase() serialization, so two cases hash equal exactly when
 * every semantically meaningful field matches. Drives content-based
 * corpus minimization (SharedCorpus::minimize).
 */
uint64_t hashTestCase(const core::TestCase &tc);

// --- crash-safe file IO (campaign directories) -----------------------------

/** CRC-32 (IEEE 802.3, reflected) over @p data. */
uint32_t crc32(const void *data, size_t size, uint32_t seed = 0);

/**
 * Integrity trailer appended to every campaign-dir artifact
 * (docs/campaign-format.md "Crash safety"): a fixed magic, the
 * directory generation the artifact belongs to, the payload length,
 * and a CRC-32 over the payload. 32 bytes, little-endian. The
 * trailer lives at the *file* layer — the payload parsers
 * (corpus_io, snapshot_io) never see it.
 */
constexpr char kTrailerMagic[9] = "DVZTRLR1";
constexpr size_t kTrailerBytes = 8 + 8 + 8 + 4 + 4; // magic,gen,len,crc,pad

/** Append a trailer binding @p payload to @p generation. */
std::string withTrailer(const std::string &payload, uint64_t generation);

/**
 * Validate and strip the trailer of @p file. On success @p payload
 * gets the raw artifact bytes and @p generation the bound
 * generation. A missing/short trailer, wrong magic, length mismatch
 * or CRC mismatch fails with a diagnostic in @p error (when
 * non-null) — the caller treats the file as torn.
 */
bool splitTrailer(const std::string &file, std::string &payload,
                  uint64_t &generation, std::string *error = nullptr);

/**
 * Crash-safe whole-file write: @p data goes to `path + ".tmp"`,
 * which is fsync'd, atomically renamed over @p path, and the parent
 * directory fsync'd — after a SIGKILL or power cut @p path holds
 * either its previous contents or all of @p data, never a mix. The
 * short-write / torn-rename / enospc failpoints hook here. Returns
 * false with a diagnostic on any OS error (the tmp file is removed).
 */
bool atomicWriteFile(const std::string &path, const std::string &data,
                     std::string *error = nullptr);

/** Read the whole of @p path into @p out (binary). */
bool readWholeFile(const std::string &path, std::string &out,
                   std::string *error = nullptr);

} // namespace dejavuzz::campaign

#endif // DEJAVUZZ_CAMPAIGN_IO_UTIL_HH
