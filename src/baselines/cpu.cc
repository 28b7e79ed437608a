#include "baselines/baselines.hh"

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <thread>

#include "lang/parse.hh"

namespace revet
{
namespace baselines
{

using lang::DramImage;

namespace
{

/** Run kernel(lo, hi) over [0, items) in @p threads chunks, the caller
 * running the last one (threads <= 0: hardware threads); return
 * best-of-3 seconds. */
double
timeParallel(uint64_t items, int threads,
             const std::function<void(uint64_t, uint64_t)> &kernel)
{
    if (threads <= 0)
        threads = static_cast<int>(std::thread::hardware_concurrency());
    threads = std::max(threads, 1);
    const uint64_t chunk = (items + threads - 1) / threads;
    const uint64_t chunks = chunk ? (items + chunk - 1) / chunk : 0;
    double best = 1e30;
    for (int rep = 0; rep < 3; ++rep) {
        auto t0 = std::chrono::steady_clock::now();
        // The calling thread runs the last chunk itself, so a 1-thread
        // timing spawns nothing and times the kernel alone.
        std::vector<std::thread> helpers;
        for (uint64_t c = 0; c + 1 < chunks; ++c)
            helpers.emplace_back(
                [&, c] { kernel(c * chunk, (c + 1) * chunk); });
        if (chunks > 0)
            kernel((chunks - 1) * chunk, items);
        for (auto &th : helpers)
            th.join();
        double s = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
        best = std::min(best, s);
    }
    return best;
}

std::atomic<uint64_t> checksum{0};

} // namespace

double
cpuThroughputGBs(const apps::App &app, int scale, int threads)
{
    lang::Program prog = lang::parseAndAnalyze(app.source);
    DramImage dram(prog);
    app.generate(dram, scale);
    double seconds = 1e30;

    if (app.name == "isipv4" || app.name == "ip2int") {
        const auto &text = dram.bytes("text");
        std::vector<int32_t> out(scale);
        seconds = timeParallel(scale, threads, [&](uint64_t lo,
                                                   uint64_t hi) {
            for (uint64_t t = lo; t < hi; ++t) {
                int groups = 0, digits = 0;
                uint32_t acc = 0, value = 0;
                bool ok = true;
                for (int i = 0; i < 16; ++i) {
                    char c = static_cast<char>(text[t * 16 + i]);
                    if (c == 0)
                        break;
                    if (c >= '0' && c <= '9') {
                        ++digits;
                        acc = acc * 10 + (c - '0');
                        if (digits > 3 || acc > 255)
                            ok = false;
                    } else if (c == '.') {
                        if (digits == 0)
                            ok = false;
                        value = value * 256 + acc;
                        ++groups;
                        digits = 0;
                        acc = 0;
                    } else {
                        ok = false;
                    }
                }
                out[t] = app.name[0] == 'i' && app.name[2] == '2'
                             ? static_cast<int32_t>(value * 256 + acc)
                             : (ok && groups == 3 && digits > 0);
            }
            checksum += static_cast<uint64_t>(out[lo]);
        });
    } else if (app.name == "murmur3") {
        const auto &blobs = dram.bytes("blobs");
        std::vector<uint32_t> out(scale);
        seconds = timeParallel(scale, threads, [&](uint64_t lo,
                                                   uint64_t hi) {
            for (uint64_t t = lo; t < hi; ++t) {
                uint32_t h = 0x9747b28cu;
                const uint32_t *w = reinterpret_cast<const uint32_t *>(
                    blobs.data() + t * 64);
                for (int i = 0; i < 16; ++i) {
                    uint32_t k = w[i] * 0xcc9e2d51u;
                    k = (k << 15) | (k >> 17);
                    k *= 0x1b873593u;
                    h ^= k;
                    h = (h << 13) | (h >> 19);
                    h = h * 5 + 0xe6546b64u;
                }
                h ^= 64;
                h ^= h >> 16;
                h *= 0x85ebca6bu;
                h ^= h >> 13;
                h *= 0xc2b2ae35u;
                h ^= h >> 16;
                out[t] = h;
            }
            checksum += out[lo];
        });
    } else if (app.name == "hash-table") {
        const auto *keys =
            reinterpret_cast<const int32_t *>(dram.bytes("keys").data());
        const auto *table =
            reinterpret_cast<const int32_t *>(dram.bytes("table").data());
        int slots = static_cast<int>(dram.bytes("table").size() / 8);
        uint64_t lookups = static_cast<uint64_t>(scale) * 16;
        std::vector<int32_t> out(lookups);
        seconds = timeParallel(lookups, threads, [&](uint64_t lo,
                                                     uint64_t hi) {
            for (uint64_t i = lo; i < hi; ++i) {
                int32_t key = keys[i];
                uint32_t h =
                    (static_cast<uint32_t>(key) * 2654435761u) % slots;
                int32_t v = -1;
                for (int p = 0; p < slots; ++p) {
                    int32_t stored = table[h * 2];
                    if (stored == 0)
                        break;
                    if (stored == key) {
                        v = table[h * 2 + 1];
                        break;
                    }
                    h = (h + 1) % slots;
                }
                out[i] = v;
            }
            checksum += static_cast<uint64_t>(out[lo]);
        });
    } else if (app.name == "search") {
        const auto &text = dram.bytes("text");
        const auto *shift =
            reinterpret_cast<const int32_t *>(dram.bytes("shiftd").data());
        const auto *pat =
            reinterpret_cast<const int32_t *>(dram.bytes("patd").data());
        const int m = 9;
        std::vector<int32_t> out(scale);
        seconds = timeParallel(scale, threads, [&](uint64_t lo,
                                                   uint64_t hi) {
            for (uint64_t t = lo; t < hi; ++t) {
                int pos = 0, hits = 0;
                const uint8_t *chunk = text.data() + t * 256;
                while (pos <= 256 - m) {
                    int j = m - 1;
                    while (j >= 0 && chunk[pos + j] == pat[j])
                        --j;
                    if (j < 0) {
                        ++hits;
                        pos += m;
                    } else {
                        pos += shift[chunk[pos + m - 1]];
                    }
                }
                out[t] = hits;
            }
            checksum += static_cast<uint64_t>(out[lo]);
        });
    } else if (app.name == "huff-dec") {
        const auto *enc =
            reinterpret_cast<const uint32_t *>(dram.bytes("enc").data());
        const auto *tb =
            reinterpret_cast<const int32_t *>(dram.bytes("tables").data());
        const int S = 64, W = S / 2 + 2;
        std::vector<int32_t> out(static_cast<size_t>(scale) * S);
        seconds = timeParallel(scale, threads, [&](uint64_t lo,
                                                   uint64_t hi) {
            for (uint64_t t = lo; t < hi; ++t) {
                uint32_t buf = 0;
                int nbits = 0, produced = 0, code = 0, len = 0, word = 0;
                while (produced < S) {
                    if (nbits == 0) {
                        buf = enc[t * W + word++];
                        nbits = 32;
                    }
                    int b = (buf >> 31) & 1;
                    buf <<= 1;
                    --nbits;
                    code = (code << 1) | b;
                    ++len;
                    int idx = code - tb[len];
                    if (tb[17 + len] > 0 && idx >= 0 &&
                        idx < tb[17 + len]) {
                        out[t * S + produced++] = tb[51 + tb[34 + len] +
                                                     idx];
                        code = 0;
                        len = 0;
                    }
                }
            }
            checksum += static_cast<uint64_t>(out[lo * S]);
        });
    } else if (app.name == "huff-enc") {
        const auto *syms =
            reinterpret_cast<const int32_t *>(dram.bytes("symbols").data());
        const auto *codes =
            reinterpret_cast<const int32_t *>(dram.bytes("codesd").data());
        const auto *lens =
            reinterpret_cast<const int32_t *>(dram.bytes("lensd").data());
        const int S = 64, W = S / 2 + 2;
        std::vector<uint32_t> out(static_cast<size_t>(scale) * W, 0);
        seconds = timeParallel(scale, threads, [&](uint64_t lo,
                                                   uint64_t hi) {
            for (uint64_t t = lo; t < hi; ++t) {
                uint64_t cur = 0;
                int nb = 0, word = 0;
                for (int i = 0; i < S; ++i) {
                    int sym = syms[t * S + i];
                    cur = (cur << lens[sym]) |
                        static_cast<uint32_t>(codes[sym]);
                    nb += lens[sym];
                    while (nb >= 32) {
                        out[t * W + word++] =
                            static_cast<uint32_t>(cur >> (nb - 32));
                        nb -= 32;
                    }
                }
                if (nb > 0)
                    out[t * W + word++] =
                        static_cast<uint32_t>(cur << (32 - nb));
            }
            checksum += out[lo * W];
        });
    } else if (app.name == "kD-tree") {
        const auto *tree =
            reinterpret_cast<const int32_t *>(dram.bytes("tree").data());
        const auto *queries =
            reinterpret_cast<const int32_t *>(dram.bytes("queries").data());
        std::vector<int32_t> out(scale);
        std::function<int(int, int, int, int, int)> walk =
            [&](int node, int qx0, int qy0, int qx1, int qy1) -> int {
            const int32_t *n = tree + node * 24;
            int x0 = n[1], y0 = n[2], sz = n[3];
            if (qx1 < x0 || qx0 > x0 + sz - 1 || qy1 < y0 ||
                qy0 > y0 + sz - 1) {
                return 0;
            }
            if (n[0] == 1) {
                int w = std::min(qx1, x0 + sz - 1) - std::max(qx0, x0) + 1;
                int h = std::min(qy1, y0 + sz - 1) - std::max(qy0, y0) + 1;
                return std::max(w, 0) * std::max(h, 0);
            }
            int total = 0;
            for (int c = 0; c < 16; ++c) {
                int ci = n[8 + c];
                if (ci >= 0)
                    total += walk(ci, qx0, qy0, qx1, qy1);
            }
            return total;
        };
        seconds = timeParallel(scale, threads, [&](uint64_t lo,
                                                   uint64_t hi) {
            for (uint64_t q = lo; q < hi; ++q) {
                out[q] = walk(0, queries[q * 4], queries[q * 4 + 1],
                              queries[q * 4 + 2], queries[q * 4 + 3]);
            }
            checksum += static_cast<uint64_t>(out[lo]);
        });
    }

    return app.accountedBytes(scale) / seconds / 1e9;
}

} // namespace baselines
} // namespace revet
