#include "core/result_cache.hh"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/fingerprint.hh"
#include "common/logging.hh"
#include "core/sweep.hh"

#ifndef SHMGPU_CODE_VERSION
#define SHMGPU_CODE_VERSION "unknown"
#endif

namespace shmgpu::core
{

const std::string &
codeVersion()
{
    static const std::string version = SHMGPU_CODE_VERSION;
    return version;
}

namespace
{

void
addGpuParams(Fingerprint &h, const gpu::GpuParams &p)
{
    h.u64(p.numSms);
    h.u64(p.numPartitions);
    h.u64(p.l2BanksPerPartition);
    h.u64(p.l2BankBytes);
    h.u64(p.l2Assoc);
    h.u64(p.l2HitLatency);
    h.str(mem::policyName(p.l2Policy));
    h.u64(p.icntLatency);
    h.u64(p.icnt.latency);
    h.f64(p.icnt.bytesPerCycle);
    h.u64(p.icnt.requestBytes);
    h.u64(p.smWindow);
    h.u64(p.interleaveBytes);
    h.u64(p.protectedBytesPerPartition);
    h.str(p.dram.name);
    h.f64(p.dram.bytesPerCycle);
    h.u64(p.dram.numBanks);
    h.u64(p.dram.rowBytes);
    h.u64(p.dram.rowHitLatency);
    h.u64(p.dram.rowMissLatency);
    h.u64(p.dram.minBurstCycles);
    h.u64(p.dram.schedulerRowWindow);
    h.u64(p.dram.writeQueueCycles);
    h.u64(p.maxCyclesPerKernel);
    h.f64(p.victimMissRateThreshold);
    h.u64(p.victimSampleRatio);
    h.u64(p.victimSampleWarmup);
}

void
addEnergyParams(Fingerprint &h, const gpu::EnergyParams &p)
{
    h.f64(p.staticPerCycle);
    h.f64(p.perInstruction);
    h.f64(p.perL2Access);
    h.f64(p.perDramByte);
    h.f64(p.perMdcAccess);
    h.f64(p.perAesBlock);
    h.f64(p.perHash);
}

void
addRunOptions(Fingerprint &h, const RunOptions &o)
{
    // Only the metrics-relevant members: collectAccuracy switches the
    // profiling/attribution pass on (moving the Fig. 10/11 tallies),
    // mdcPolicy steers the metadata caches. Trace settings observe a
    // run without perturbing it, so hashing them would only split the
    // cache for identical results.
    h.boolean(o.collectAccuracy);
    h.str(mem::policyName(o.mdcPolicy));
}

/** The hex fingerprint of @p payload's compact serialization. */
std::string
payloadHash(const json::Value &payload)
{
    Fingerprint h;
    h.str(payload.dump(0));
    char hex[20];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(h.value()));
    return hex;
}

} // namespace

std::uint64_t
cellKey(const gpu::GpuParams &gpu, const gpu::EnergyParams &energy,
        const RunOptions &options, schemes::Scheme scheme,
        const workload::WorkloadSpec &spec, crypto::Backend backend,
        const std::string &code_version)
{
    Fingerprint h;
    h.str(code_version);
    h.u64(static_cast<std::uint64_t>(ResultCache::kSchemaVersion));
    addGpuParams(h, gpu);
    addEnergyParams(h, energy);
    addRunOptions(h, options);
    h.str(schemes::schemeName(scheme));
    h.str(crypto::backendName(backend));
    h.u64(workload::contentHash(spec));
    return h.value();
}

std::uint64_t
scenarioCellKey(const gpu::GpuParams &gpu, const gpu::EnergyParams &energy,
                bool with_solo, mem::PolicyKind mdc_policy,
                schemes::Scheme scheme,
                const workload::ScenarioSpec &scenario,
                crypto::Backend backend, const std::string &code_version)
{
    Fingerprint h;
    h.str(code_version);
    h.u64(static_cast<std::uint64_t>(ResultCache::kSchemaVersion));
    // Domain tag: a scenario cell never aliases a single-workload
    // cell that happens to share every other fingerprint input.
    h.str("scenario");
    addGpuParams(h, gpu);
    addEnergyParams(h, energy);
    h.boolean(with_solo);
    h.str(mem::policyName(mdc_policy));
    h.str(schemes::schemeName(scheme));
    h.str(crypto::backendName(backend));
    h.u64(workload::contentHash(scenario));
    return h.value();
}

std::string
ResultCache::fileName(std::uint64_t key)
{
    char name[40];
    std::snprintf(name, sizeof(name), "cell-%016llx.json",
                  static_cast<unsigned long long>(key));
    return name;
}

ResultCache::ResultCache(std::string directory) : dir(std::move(directory))
{
    shm_assert(!dir.empty(), "result cache needs a directory");
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec)
        shm_fatal("cannot create results directory '{}': {}", dir,
                  ec.message());
    if (!std::filesystem::is_directory(dir))
        shm_fatal("results path '{}' is not a directory", dir);
}

bool
ResultCache::load(std::uint64_t key, ExperimentResult *out) const
{
    shm_assert(out != nullptr, "load needs a destination");
    json::Value payload;
    if (!loadValue(key, "result", &payload))
        return false;
    *out = resultFromJson(payload);
    return true;
}

void
ResultCache::store(std::uint64_t key, const ExperimentResult &result) const
{
    storeValue(key, "result", resultToJson(result));
}

bool
ResultCache::loadValue(std::uint64_t key, const std::string &kind,
                       json::Value *out) const
{
    shm_assert(out != nullptr, "load needs a destination");
    const std::string path = dir + "/" + fileName(key);
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream text;
    text << in.rdbuf();

    // A cell file another build wrote, a truncated leftover from a
    // hand-copied directory, or plain corruption are all just misses:
    // the sweep re-simulates and overwrites. So is a cell of another
    // kind (a scenario cell under a sweep loader or vice versa).
    json::Value doc;
    if (!json::Value::tryParse(text.str(), &doc))
        return false;
    auto stamp = [&](const char *member) -> const json::Value * {
        return doc.contains(member) ? &doc.at(member) : nullptr;
    };
    if (!doc.isObject() || !doc.contains(kind))
        return false;
    const json::Value *version = stamp("schemaVersion");
    const json::Value *name = stamp("key");
    const json::Value *hash = stamp("payloadHash");
    if (!version || !version->isNumber() ||
        version->asNumber() != kSchemaVersion || !name ||
        !name->isString() || name->asString() != fileName(key) || !hash ||
        !hash->isString())
        return false;
    // The payload hash catches any corruption the parse survives (a
    // flipped digit): past it, the payload is one storeValue() wrote,
    // and the payload parser may assume our own shape.
    if (hash->asString() != payloadHash(doc.at(kind)))
        return false;
    *out = doc.at(kind);
    return true;
}

void
ResultCache::storeValue(std::uint64_t key, const std::string &kind,
                        const json::Value &payload) const
{
    json::Value doc = json::Value::object();
    doc["schemaVersion"] = json::Value(kSchemaVersion);
    // Stamp the file with its own name: loadValue() rejects files
    // renamed onto another key, and the stamp survives directory
    // copies.
    doc["key"] = json::Value(fileName(key));
    doc["codeVersion"] = json::Value(codeVersion());
    doc["payloadHash"] = json::Value(payloadHash(payload));
    doc[kind] = payload;

    const std::string final_path = dir + "/" + fileName(key);
    const std::string tmp_path = final_path + ".tmp";
    {
        std::ofstream os(tmp_path, std::ios::binary | std::ios::trunc);
        if (!os)
            shm_fatal("cannot write result cell '{}'", tmp_path);
        doc.write(os, 2);
        os << "\n";
        os.flush();
        if (!os)
            shm_fatal("short write to result cell '{}'", tmp_path);
    }
    // Atomic within one directory: a reader (or a resumed sweep
    // racing a dying one) sees either no file or the whole file.
    std::error_code ec;
    std::filesystem::rename(tmp_path, final_path, ec);
    if (ec)
        shm_fatal("cannot publish result cell '{}': {}", final_path,
                  ec.message());
}

void
runMetricsFromJson(const json::Value &v, gpu::RunMetrics *m)
{
    auto u64 = [&](const char *key) {
        return static_cast<std::uint64_t>(v.at(key).asNumber());
    };
    m->cycles = static_cast<Cycle>(u64("cycles"));
    m->instructions = u64("instructions");
    m->ipc = v.at("ipc").asNumber();
    m->bytesData = u64("bytesData");
    m->bytesCounter = u64("bytesCounter");
    m->bytesMac = u64("bytesMac");
    m->bytesBmt = u64("bytesBmt");
    m->bytesExtra = u64("bytesExtra");
    m->bandwidthUtilization = v.at("bandwidthUtilization").asNumber();
    m->l2MissRate = v.at("l2MissRate").asNumber();
    m->roCorrect = v.at("roCorrect").asNumber();
    m->roMpInit = v.at("roMpInit").asNumber();
    m->roMpAliasing = v.at("roMpAliasing").asNumber();
    m->strCorrect = v.at("strCorrect").asNumber();
    m->strMpInit = v.at("strMpInit").asNumber();
    m->strMpAliasing = v.at("strMpAliasing").asNumber();
    m->strMpRuntimeRo = v.at("strMpRuntimeRo").asNumber();
    m->strMpRuntimeNonRo = v.at("strMpRuntimeNonRo").asNumber();
    m->sharedCtrReads = v.at("sharedCtrReads").asNumber();
    m->commonCtrHits = v.at("commonCtrHits").asNumber();
    m->roTransitions = v.at("roTransitions").asNumber();
    m->chunkMacAccesses = v.at("chunkMacAccesses").asNumber();
    m->blockMacAccesses = v.at("blockMacAccesses").asNumber();
    m->dualMacFallbacks = v.at("dualMacFallbacks").asNumber();
    m->victimHits = v.at("victimHits").asNumber();
    m->victimInserts = v.at("victimInserts").asNumber();

    const json::Value &e = v.at("energy");
    auto eu64 = [&](const char *key) {
        return static_cast<std::uint64_t>(e.at(key).asNumber());
    };
    m->energy.cycles = static_cast<Cycle>(eu64("cycles"));
    m->energy.instructions = eu64("instructions");
    m->energy.l2Accesses = eu64("l2Accesses");
    m->energy.dramBytes = eu64("dramBytes");
    m->energy.mdcAccesses = eu64("mdcAccesses");
    m->energy.aesBlocks = eu64("aesBlocks");
    m->energy.hashes = eu64("hashes");
}

ExperimentResult
resultFromJson(const json::Value &v)
{
    ExperimentResult r;
    r.workload = v.at("workload").asString();
    r.scheme = v.at("scheme").asString();
    r.l2Policy = v.at("l2Policy").asString();
    r.mdcPolicy = v.at("mdcPolicy").asString();
    r.normalizedIpc = v.at("normalizedIpc").asNumber();
    r.normalizedEnergyPerInstr =
        v.at("normalizedEnergyPerInstr").asNumber();
    runMetricsFromJson(v.at("metrics"), &r.metrics);
    runMetricsFromJson(v.at("baseline"), &r.baseline);
    return r;
}

} // namespace shmgpu::core
