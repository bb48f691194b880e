#include "schemes/schemes.hh"

#include "common/logging.hh"

namespace shmgpu::schemes
{

const char *
schemeName(Scheme scheme)
{
    switch (scheme) {
      case Scheme::Baseline: return "Baseline";
      case Scheme::Naive: return "Naive";
      case Scheme::CommonCtr: return "Common_ctr";
      case Scheme::Pssm: return "PSSM";
      case Scheme::PssmCctr: return "PSSM_cctr";
      case Scheme::Shm: return "SHM";
      case Scheme::ShmReadOnly: return "SHM_readOnly";
      case Scheme::ShmCctr: return "SHM_cctr";
      case Scheme::ShmVL2: return "SHM_vL2";
      case Scheme::ShmUpperBound: return "SHM_upper_bound";
    }
    return "unknown";
}

Scheme
schemeFromName(const std::string &name)
{
    for (Scheme s : allSchemes())
        if (name == schemeName(s))
            return s;
    if (name == schemeName(Scheme::Baseline))
        return Scheme::Baseline;
    // Name the valid set, like policyFromName does.
    std::string known = schemeName(Scheme::Baseline);
    for (Scheme s : allSchemes()) {
        known += ", ";
        known += schemeName(s);
    }
    shm_fatal("unknown scheme '{}' (expected one of: {})", name, known);
}

const std::vector<Scheme> &
allSchemes()
{
    static const std::vector<Scheme> schemes = {
        Scheme::Naive,       Scheme::CommonCtr, Scheme::Pssm,
        Scheme::PssmCctr,    Scheme::Shm,       Scheme::ShmReadOnly,
        Scheme::ShmCctr,     Scheme::ShmVL2,    Scheme::ShmUpperBound,
    };
    return schemes;
}

mee::MeeParams
makeMeeParams(Scheme scheme)
{
    mee::MeeParams p; // Table VI defaults

    // The paper's MATs finish a phase after K=32 (128 B-granular)
    // accesses; this simulator's L2 misses are 32 B sectors, so a
    // phase spans up to 4x as many accesses and occupies its MAT
    // correspondingly longer. 16 MATs restore the paper's effective
    // monitoring capacity for ~71 extra bytes per partition.
    auto size_mats = [&] { p.streamDetector.trackers = 16; };
    switch (scheme) {
      case Scheme::Baseline:
        p.secure = false;
        break;
      case Scheme::Naive:
        p.localMetadataAddressing = false;
        p.sectoredMetadata = false;
        break;
      case Scheme::CommonCtr:
        p.localMetadataAddressing = false;
        p.sectoredMetadata = false;
        p.commonCounters = true;
        break;
      case Scheme::Pssm:
        break; // local + sectored are the defaults
      case Scheme::PssmCctr:
        p.commonCounters = true;
        break;
      case Scheme::Shm:
        p.readOnlyOpt = true;
        p.dualGranularityMac = true;
        size_mats();
        break;
      case Scheme::ShmReadOnly:
        p.readOnlyOpt = true;
        break;
      case Scheme::ShmCctr:
        p.readOnlyOpt = true;
        p.dualGranularityMac = true;
        p.commonCounters = true;
        size_mats();
        break;
      case Scheme::ShmVL2:
        p.readOnlyOpt = true;
        p.dualGranularityMac = true;
        p.victimL2 = true;
        size_mats();
        break;
      case Scheme::ShmUpperBound:
        p.readOnlyOpt = true;
        p.dualGranularityMac = true;
        // Unlimited MATs and effectively unaliased predictors.
        p.streamDetector.trackers = 0;
        p.streamDetector.entries = 1u << 16;
        p.roDetector.entries = 1u << 16;
        break;
    }
    return p;
}

bool
needsProfilePass(Scheme scheme)
{
    return scheme == Scheme::ShmUpperBound;
}

} // namespace shmgpu::schemes
