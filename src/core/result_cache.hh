/**
 * @file
 * Persistent, content-addressed store of finished sweep cells — the
 * memoization layer that makes grid reruns and interrupted sweeps
 * cheap (ROADMAP "sweep-at-scale", docs/SWEEP.md).
 *
 * Every grid cell, workload or scenario, is keyed by a 64-bit
 * fingerprint of *everything* that can move its metrics:
 *
 *   - the full effective gpu::GpuParams (every field, nested
 *     interconnect/DRAM structures included) and gpu::EnergyParams,
 *   - the metrics-relevant core::RunOptions fields (collectAccuracy
 *     changes the attribution tallies; mdcPolicy steers the metadata
 *     caches; trace options are excluded — tracing never changes
 *     simulated results),
 *   - the scheme (which determines mee::MeeParams via the registry),
 *   - workload::contentHash of the spec (not its name: regenerated
 *     parameter sweeps reusing a name cannot alias),
 *   - the host's crypto backend (bit-identical by construction,
 *     hashed anyway so hosts sharing a results directory never read
 *     each other's cells),
 *   - a code-version stamp baked in at build time, so rebuilding a
 *     changed simulator invalidates every cached cell at once.
 *
 * Cells serialize one-per-file as
 * `<dir>/cell-<16-hex-key>.json` containing the same JSON object the
 * sweep sink emits for that cell, under a member naming its kind;
 * writes go to a temp name in the same directory and are renamed into
 * place, so readers (and resumed sweeps racing a dying one) only ever
 * see whole files. Loading a cell reproduces the fresh result
 * byte-for-byte through the JSON sink (shortest-round-trip doubles
 * both ways), which is what lets `--resume` output promise
 * bit-identity with an uninterrupted run.
 *
 * Extending the key inputs (a new GpuParams field, a new RunOptions
 * knob) means feeding the new field into cellKey unconditionally and
 * bumping kSchemaVersion if the cell JSON shape changes; stale
 * versions and foreign keys are treated as misses, never errors.
 */

#ifndef SHMGPU_CORE_RESULT_CACHE_HH
#define SHMGPU_CORE_RESULT_CACHE_HH

#include <cstdint>
#include <string>

#include "common/json.hh"
#include "core/experiment.hh"
#include "crypto/dispatch.hh"
#include "gpu/energy.hh"
#include "gpu/params.hh"
#include "workload/scenario.hh"

namespace shmgpu::core
{

struct ScenarioExperimentResult;

/**
 * The code-version stamp compiled into this binary (from the build
 * system's SHMGPU_CODE_VERSION, normally the git revision; "unknown"
 * when built outside a checkout).
 */
const std::string &codeVersion();

/**
 * The 64-bit content key of one sweep cell. @p code_version defaults
 * to this binary's stamp; tests pass explicit strings to prove the
 * stamp participates in the key.
 */
std::uint64_t cellKey(const gpu::GpuParams &gpu,
                      const gpu::EnergyParams &energy,
                      const RunOptions &options,
                      schemes::Scheme scheme,
                      const workload::WorkloadSpec &spec,
                      crypto::Backend backend,
                      const std::string &code_version = codeVersion());

/**
 * The cell key of one multi-tenant scenario cell (core/scenario.hh).
 * Same fingerprint inputs as cellKey — full GpuParams/EnergyParams,
 * scheme, crypto backend, code version — with the workload hash
 * replaced by workload::contentHash(scenario) (which folds in every
 * tenant's workload, arrivals, share policy, quantum, MDC-flush flag
 * and key seed), the metrics-relevant scenario run options
 * (withSolo adds the solo-reference fields to the cell; mdcPolicy
 * steers the metadata caches), and a "scenario" domain tag so a
 * scenario cell can never collide with a single-workload cell of the
 * same configuration.
 */
std::uint64_t scenarioCellKey(const gpu::GpuParams &gpu,
                              const gpu::EnergyParams &energy,
                              bool with_solo,
                              mem::PolicyKind mdc_policy,
                              schemes::Scheme scheme,
                              const workload::ScenarioSpec &scenario,
                              crypto::Backend backend,
                              const std::string &code_version =
                                  codeVersion());

/** One-file-per-cell persistent result store (see file comment). */
class ResultCache
{
  public:
    /** Cell-file schema; bump when the serialized shape changes.
     *  v2: RunMetrics carries the adaptive-controller tallies.
     *  v3: those tallies and the per-cell epoch are gone.
     *  v4: cells carry a payloadHash, so any corruption is a miss. */
    static constexpr int kSchemaVersion = 4;

    /**
     * Open (creating if needed) the cache directory @p dir. Fatal
     * when the path exists but is not a directory or cannot be
     * created.
     */
    explicit ResultCache(std::string dir);

    /**
     * @{ Load the cell stored under @p key into @p out. Returns false
     * — a miss, never an error — when the file is absent, unparsable,
     * from another schema version, stamped with a different key (a
     * hand-renamed file), of the other cell kind, or its payload does
     * not match the stored payload hash (truncation or corruption).
     */
    bool load(std::uint64_t key, ExperimentResult *out) const;
    bool load(std::uint64_t key, ScenarioExperimentResult *out) const;
    /** @} */

    /**
     * @{ Persist @p result under @p key: serialize to a temp file in
     * the cache directory, then atomically rename into place. Safe to
     * call from concurrent sweep workers (distinct cells have
     * distinct keys; same-key writers are idempotent byte-for-byte).
     */
    void store(std::uint64_t key, const ExperimentResult &result) const;
    void store(std::uint64_t key,
               const ScenarioExperimentResult &result) const;
    /** @} */

    /** The on-disk file name for @p key ("cell-<16 hex>.json"). */
    static std::string fileName(std::uint64_t key);

    const std::string &directory() const { return dir; }

  private:
    /**
     * Kind-tagged cell storage under load()/store(). @p kind names the
     * payload member inside the cell file ("result" for sweep cells,
     * "scenarioResult" for scenario cells), so a file whose payload
     * member does not match is a miss. Distinct kinds also hash
     * distinct key domains (cellKey vs scenarioCellKey), so they never
     * collide on file names either.
     */
    bool loadValue(std::uint64_t key, const std::string &kind,
                   json::Value *out) const;
    void storeValue(std::uint64_t key, const std::string &kind,
                    const json::Value &payload) const;

    std::string dir;
};

} // namespace shmgpu::core

#endif // SHMGPU_CORE_RESULT_CACHE_HH
