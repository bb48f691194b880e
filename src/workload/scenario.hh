/**
 * @file
 * Multi-tenant scenario descriptors.
 *
 * A scenario is what the simulator runs when a GPU is shared: N
 * tenants, each with its own workload, arrival cycle, and — crucially
 * for the security model — its own MEE key domain. The share policy
 * picks between time-sliced context switching (one tenant owns the
 * whole GPU per quantum; detector state is flushed/restored at each
 * switch via the InputReadOnlyReset machinery) and MIG-style static
 * partitioning (disjoint SM and memory-partition splits, all tenants
 * concurrent, no switches).
 *
 * Text format (line-oriented, '#' comments, see parseScenario):
 *
 *   scenario <name>
 *   share timeslice|partitioned
 *   quantum <cycles>                 # timeslice switch quantum
 *   flush_mdc on|off                 # flush metadata caches at switch
 *   keyseed <n>                      # master seed for tenant key domains
 *   tenant <workload-name>|@<spec-file> [arrival=<cycle>] [as=<alias>]
 *
 * Example: examples/scenarios/mix2.scn
 */

#ifndef SHMGPU_WORKLOAD_SCENARIO_HH
#define SHMGPU_WORKLOAD_SCENARIO_HH

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "workload/spec.hh"
#include "workload/trace_file.hh"

namespace shmgpu::workload
{

/** How tenants share the GPU. */
enum class SharePolicy : std::uint8_t
{
    /**
     * Round-robin time slicing: one tenant owns every SM and memory
     * partition for a quantum of cycles, then the engine switches
     * contexts (flushing detector state, optionally the MDCs).
     */
    TimeSliced,
    /**
     * MIG-style static split: SMs and memory partitions are divided
     * contiguously across tenants, which then run concurrently with
     * no context switches and fully private metadata machinery.
     */
    Partitioned,
};

/** Name of a share policy ("timeslice" / "partitioned"). */
const char *sharePolicyName(SharePolicy policy);

/** Parse a share-policy name; fatal on unknown name, prefixed with
 *  @p where when given. */
SharePolicy sharePolicyFromName(const std::string &name,
                                const std::string &where = "");

/** One tenant: a workload (or a recorded trace) plus its scheduling
 *  identity. */
struct TenantSpec
{
    /** Display alias (defaults to the workload name). */
    std::string name;
    /** The tenant's workload (owned; tenants never share specs). */
    WorkloadSpec workload;
    /** Cycle at which the tenant's first kernel may start. */
    Cycle arrivalCycle = 0;
    /**
     * A recorded trace replayed in place of the workload (shared and
     * read-only; null for a workload tenant). Trace addresses are
     * absolute, so a trace tenant must be its scenario's only tenant.
     */
    std::shared_ptr<const Trace> trace;
};

/** A full sharing scenario. */
struct ScenarioSpec
{
    std::string name = "scenario";
    SharePolicy policy = SharePolicy::TimeSliced;
    /** Context-switch quantum in cycles (TimeSliced only). */
    Cycle quantumCycles = 20000;
    /** Flush the metadata caches (writing back dirty lines as DRAM
     *  traffic) at every context switch. */
    bool flushMdcOnSwitch = false;
    /** Master seed from which each tenant's key domain is derived. */
    std::uint64_t keySeed = 1;
    std::vector<TenantSpec> tenants;
};

/**
 * Validate a scenario's internal consistency (at least one tenant,
 * positive quantum, per-tenant workload validity, unique tenant
 * names, a trace tenant alone and with kernels); fatal with a precise
 * message on the first violation, prefixed with @p where when given.
 */
void validateScenario(const ScenarioSpec &scenario,
                      const std::string &where = "");

/**
 * FNV-1a hash over every simulation-relevant field of @p scenario,
 * including each tenant's full workload and trace contentHash,
 * arrival cycle, the share policy, quantum, MDC-flush flag, and key
 * seed. Feeds the result-cache cell key, so it follows the
 * fingerprint contract: new fields are fed unconditionally
 * (common/fingerprint.hh).
 */
std::uint64_t contentHash(const ScenarioSpec &scenario);

/**
 * Wrap a single workload as the degenerate scenario (one tenant,
 * arrival 0, time-sliced full sharing): how every single-workload run
 * reaches the simulator.
 */
ScenarioSpec singleTenantScenario(const WorkloadSpec &spec);

/** The same degenerate scenario over a recorded trace. */
ScenarioSpec singleTenantScenario(std::shared_ptr<const Trace> trace,
                                  const std::string &name = "trace");

/**
 * Parse a scenario description; fatal with file/line on errors.
 * Workload references resolve against the built-in benchmark set, or
 * against spec files when prefixed with '@' (relative paths resolve
 * against the scenario file's directory).
 */
ScenarioSpec parseScenario(std::istream &in,
                           const std::string &origin = "<stream>");

/** Parse a scenario description file. */
ScenarioSpec parseScenarioFile(const std::string &path);

} // namespace shmgpu::workload

#endif // SHMGPU_WORKLOAD_SCENARIO_HH
