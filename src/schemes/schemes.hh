/**
 * @file
 * The evaluated secure-GPU-memory designs (Table VIII of the paper),
 * as MEE configurations.
 */

#ifndef SHMGPU_SCHEMES_SCHEMES_HH
#define SHMGPU_SCHEMES_SCHEMES_HH

#include <string>
#include <vector>

#include "mee/engine.hh"

namespace shmgpu::schemes
{

/** Table VIII designs, plus the no-security baseline. */
enum class Scheme
{
    Baseline,      //!< GPU without secure memory (normalization base)
    Naive,         //!< physical-address metadata, CPU-TEE style
    CommonCtr,     //!< common counters [Na et al.], physical addresses
    Pssm,          //!< partitioned+sectored metadata [Yuan et al.]
    PssmCctr,      //!< PSSM + common counters
    Shm,           //!< this paper: read-only + dual-granularity MACs
    ShmReadOnly,   //!< SHM with only the read-only/shared-counter part
    ShmCctr,       //!< SHM + common counters
    ShmVL2,        //!< SHM + L2 as victim cache for metadata
    ShmUpperBound  //!< SHM with oracle (unlimited, profile-primed)
};

/** The paper's label for a scheme (Table VIII). */
const char *schemeName(Scheme scheme);

/** Parse a scheme label; fatal on unknown names. */
Scheme schemeFromName(const std::string &name);

/** All schemes, in Table VIII order (excluding the baseline). */
const std::vector<Scheme> &allSchemes();

/** Build the MEE configuration for a scheme. */
mee::MeeParams makeMeeParams(Scheme scheme);

/** True when the scheme primes its predictors from the Baseline truth
 *  profile before the run (and after every context switch). */
bool needsProfilePass(Scheme scheme);

} // namespace shmgpu::schemes

#endif // SHMGPU_SCHEMES_SCHEMES_HH
