/**
 * @file
 * aes_encrypt: AES-128 blocks through two AesPum engines sharing one
 * two-tile chip through the runtime session API (as
 * examples/aes_demo.cpp does), blocks alternating between engines.
 * The key and plaintexts come from the seed; every ciphertext must
 * equal aes::encrypt and decrypt back to its plaintext, and the
 * FIPS-197 Appendix B vector is the set-up's first cold call.
 */

#include <algorithm>
#include <string>

#include "Probes.h"
#include "Workloads.h"
#include "analog/Compensation.h"
#include "apps/aes/AesPum.h"
#include "apps/aes/MixColumnsGf2.h"
#include "common/Random.h"
#include "model/Params.h"

namespace hostbench
{

using namespace darth;

namespace
{

/** Blocks per round (distinct seeded plaintexts, repeated). */
constexpr std::size_t kRound = 64;

runtime::ChipConfig
aesChip()
{
    runtime::ChipConfig chip;
    chip.hct.dce.numPipelines = 2;
    chip.hct.dce.pipeline.depth = 16;
    chip.hct.dce.pipeline.width = 64;
    chip.hct.dce.pipeline.numRegs = 24;
    chip.hct.ace.numArrays = 1;
    chip.hct.ace.arrayRows = 64;
    chip.hct.ace.arrayCols = 32;
    chip.numHcts = 2;
    return chip;
}

std::vector<u8>
bytes(const char *hex)
{
    std::vector<u8> out;
    for (const char *p = hex; p[0] != '\0' && p[1] != '\0'; p += 2)
        out.push_back(static_cast<u8>(std::stoi(std::string(p, 2), nullptr, 16)));
    return out;
}

aes::Block
block(const std::vector<u8> &b)
{
    aes::Block out{};
    std::copy(b.begin(), b.begin() + 16, out.begin());
    return out;
}

} // namespace

Outcome
runAesEncrypt(const Options &opt, Tracer &tracer)
{
    Outcome out;
    const runtime::ChipConfig cfg = aesChip();
    runtime::Chip chip(cfg, opt.seed);
    runtime::Runtime rt(chip);

    Rng rng(mixSeed(opt.seed, 1));
    std::vector<u8> key(16);
    for (u8 &b : key)
        b = static_cast<u8>(rng.uniformInt(256));
    std::vector<aes::Block> plain(kRound);
    for (aes::Block &p : plain)
        for (u8 &b : p)
            b = static_cast<u8>(rng.uniformInt(256));

    // First cold call: the FIPS-197 Appendix B vector, on a
    // stand-alone engine of the same tile configuration (re-keying a
    // shared-chip tenant would move it to the other tile, and the
    // first block of the tenant placed behind it would wait out the
    // old tenant's simulated work).
    {
        aes::AesPum fips(cfg.hct, opt.seed);
        fips.initArrays(bytes("2b7e151628aed2a6abf7158809cf4f3c"));
        const aes::Block ct =
            fips.encrypt(block(bytes("3243f6a8885a308d313198a2e0370734")));
        out.check(ct == block(bytes("3925841d02dc09fbdc118597196a0b32")),
                  "FIPS-197 Appendix B vector");
    }
    aes::AesPum engine_a(rt);
    aes::AesPum engine_b(rt);
    engine_a.initArrays(key);
    engine_b.initArrays(key);
    out.set("setup_s", secondsSince(opt.t0Ns));

    // Reference ciphertexts: plain FIPS-197 AES, timed apart.
    const i64 ref_start = nowNs();
    std::vector<aes::Block> want;
    bool roundtrip = true;
    for (const aes::Block &p : plain) {
        want.push_back(aes::encrypt(p, key));
        roundtrip = roundtrip && aes::decrypt(want.back(), key) == p;
    }
    out.set("apps.reference_ms", secondsSince(ref_start) * 1e3 /
                                     static_cast<double>(kRound));
    out.check(roundtrip, "aes::decrypt does not invert aes::encrypt");

    std::vector<aes::Block> cipher(kRound);
    std::vector<double> latency;
    double engine_cycles[2] = {0.0, 0.0};
    aes::AesKernelBreakdown kernels;
    WorkCounts round0;
    u64 wrong = 0;
    const WorkCounts before = countWork(chip, rt);
    const Rounds rounds =
        runRounds(opt.seconds, [&](std::size_t r) {
            const i64 t = nowNs();
            for (std::size_t i = 0; i < kRound; ++i) {
                aes::AesPum &engine = i % 2 == 0 ? engine_a : engine_b;
                {
                    const auto s =
                        tracer.span("apps.aes_encrypt", r * kRound + i + 1);
                    cipher[i] = engine.encrypt(plain[i]);
                }
                if (r == 0) {
                    latency.push_back(
                        static_cast<double>(engine.lastLatency()));
                    engine_cycles[i % 2] +=
                        static_cast<double>(engine.lastLatency());
                    kernels += engine.breakdown();
                }
            }
            const double s = secondsSince(t);
            if (r == 0) {
                round0 = countWork(chip, rt) - before;
                if (opt.corrupt)
                    cipher[0][0] ^= 0x01;
            }
            for (std::size_t i = 0; i < kRound; ++i)
                wrong += cipher[i] != want[i] ||
                         aes::decrypt(cipher[i], key) != plain[i];
            return s;
        });
    out.attempted = rounds.count() * kRound;
    out.setRounds(rounds, kRound);
    out.failed = wrong;
    out.check(wrong == 0, std::to_string(wrong) +
                              " ciphertexts differ from aes::encrypt");

    const double ns_per_cycle = 1.0 / model::kClockGHz;
    for (double &l : latency)
        l *= ns_per_cycle;
    out.set("sim_latency_p50_ns", median(latency));
    out.set("sim_latency_p99_ns", percentile(latency, 99.0));
    out.set("sim_throughput_per_kns",
            static_cast<double>(kRound) * 1000.0 /
                (std::max(engine_cycles[0], engine_cycles[1]) *
                 ns_per_cycle));

    if (!tracer.enabled())
        return out;
    setWorkMetrics(out, round0, kRound);
    const double n = static_cast<double>(kRound);
    out.set("apps.aes_kernel_cycles.data_movement",
            static_cast<double>(kernels.dataMovement) / n);
    out.set("apps.aes_kernel_cycles.sub_bytes",
            static_cast<double>(kernels.subBytes) / n);
    out.set("apps.aes_kernel_cycles.shift_rows",
            static_cast<double>(kernels.shiftRows) / n);
    out.set("apps.aes_kernel_cycles.mix_columns",
            static_cast<double>(kernels.mixColumns) / n);
    out.set("apps.aes_kernel_cycles.add_round_key",
            static_cast<double>(kernels.addRoundKey) / n);
    // MixColumns: the 32x32 GF(2) matrix remapped to ±1, 1-bit cells
    // and inputs.
    ProbeShape shape{
        analog::Compensation::remapBinary(aes::mixColumnsGf2Matrix()), 1,
        1, 1};
    runProbes(cfg, shape, opt.seed, tracer, out);
    return out;
}

} // namespace hostbench
