/**
 * @file
 * Text format for workload descriptions, so custom workloads can be
 * simulated without recompiling (`shmgpu run --spec FILE`).
 *
 * Line-oriented; '#' starts a comment. Sizes accept K/M/G suffixes.
 *
 *   workload <name>
 *   seed <n>
 *   band <lo%> <hi%>                  # Table-VII utilization band
 *   buffer <name> <size> [global|constant|texture|local]
 *   kernel <name> iters=<n> compute=<n> [window=<n>]
 *     copy <buffer> [declared]        # host copy before this kernel
 *     read  <buffer> stream            [p=<prob>]
 *     read  <buffer> random            [p=<prob>]
 *     read  <buffer> hot <frac> <prob> [p=<prob>]
 *     read  <buffer> strided <sectors> [p=<prob>]
 *     write <buffer> <pattern...>      [p=<prob>]
 *
 * Example: examples/workloads/saxpy.wl
 */

#ifndef SHMGPU_WORKLOAD_PARSER_HH
#define SHMGPU_WORKLOAD_PARSER_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "workload/spec.hh"

namespace shmgpu::workload
{

/** Parse a workload description; fatal with file/line on errors. */
WorkloadSpec parseWorkload(std::istream &in,
                           const std::string &origin = "<stream>");

/** Parse a workload description file. */
WorkloadSpec parseWorkloadFile(const std::string &path);

/** Parse a size like "32M", "4096", "2G"; fatal at @p where when it
 *  is not one. */
std::uint64_t parseSize(const std::string &token,
                        const std::string &where = "size");

/** @{ Shared by the .wl and .scn readers. The tokens of one line with
 *  its '#' comment dropped. */
std::vector<std::string> lineTokens(const std::string &line);
/** @p tok as a whole unsigned number; fatal at @p where otherwise. */
std::uint64_t parseUnsigned(const std::string &tok,
                            const std::string &where);
/** @} */

} // namespace shmgpu::workload

#endif // SHMGPU_WORKLOAD_PARSER_HH
