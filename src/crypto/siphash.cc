#include "crypto/siphash.hh"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/logging.hh"

namespace shmgpu::crypto
{

namespace
{

inline std::uint64_t
rotl(std::uint64_t x, int b)
{
    return (x << b) | (x >> (64 - b));
}

/** Swap a word between native and little-endian byte order. */
inline std::uint64_t
toLe64(std::uint64_t v)
{
    if constexpr (std::endian::native == std::endian::big)
        return __builtin_bswap64(v);
    return v;
}

inline std::uint64_t
readLe64(const std::uint8_t *p)
{
    std::uint64_t v;
    std::memcpy(&v, p, sizeof(v));
    return toLe64(v);
}

} // namespace

SipHasher::SipHasher(const SipKey &key)
    : v0(0x736f6d6570736575ull ^ key.k0),
      v1(0x646f72616e646f6dull ^ key.k1),
      v2(0x6c7967656e657261ull ^ key.k0),
      v3(0x7465646279746573ull ^ key.k1)
{
}

void
SipHasher::round()
{
    v0 += v1; v1 = rotl(v1, 13); v1 ^= v0; v0 = rotl(v0, 32);
    v2 += v3; v3 = rotl(v3, 16); v3 ^= v2;
    v0 += v3; v3 = rotl(v3, 21); v3 ^= v0;
    v2 += v1; v1 = rotl(v1, 17); v1 ^= v2; v2 = rotl(v2, 32);
}

void
SipHasher::compress(std::uint64_t m)
{
    v3 ^= m;
    round();
    round();
    v0 ^= m;
}

SipHasher &
SipHasher::update(const void *data, std::size_t len)
{
    shm_assert(!finalized, "SipHasher reused after digest()");
    if (len == 0)
        return *this;
    const auto *p = static_cast<const std::uint8_t *>(data);
    totalLen += len;
    if (bufLen > 0) {
        const std::size_t take = std::min(len, 8 - bufLen);
        std::memcpy(buf + bufLen, p, take);
        bufLen += take;
        p += take;
        len -= take;
        if (bufLen < 8)
            return *this;
        compress(readLe64(buf));
        bufLen = 0;
    }
    for (; len >= 8; p += 8, len -= 8)
        compress(readLe64(p));
    std::memcpy(buf, p, len);
    bufLen = len;
    return *this;
}

SipHasher &
SipHasher::updateU64(std::uint64_t v)
{
    if (bufLen > 0) {
        const std::uint64_t le = toLe64(v);
        return update(&le, sizeof(le));
    }
    // Word-aligned: the word is the next message block as is.
    shm_assert(!finalized, "SipHasher reused after digest()");
    totalLen += 8;
    compress(v);
    return *this;
}

std::uint64_t
SipHasher::digest()
{
    shm_assert(!finalized, "SipHasher reused after digest()");
    finalized = true;

    // Final block: pad with zeros, last byte = total length mod 256.
    std::uint8_t last[8] = {};
    for (std::size_t i = 0; i < bufLen; ++i)
        last[i] = buf[i];
    last[7] = static_cast<std::uint8_t>(totalLen & 0xff);
    compress(readLe64(last));

    v2 ^= 0xff;
    round();
    round();
    round();
    round();
    return v0 ^ v1 ^ v2 ^ v3;
}

std::uint64_t
siphash24(const SipKey &key, const void *data, std::size_t len)
{
    SipHasher h(key);
    h.update(data, len);
    return h.digest();
}

} // namespace shmgpu::crypto
