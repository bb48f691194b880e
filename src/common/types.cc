#include "common/types.hh"

namespace shmgpu
{

Guarantees
requiredGuarantees(MemSpace space, bool read_only)
{
    Guarantees g;
    switch (space) {
      case MemSpace::Constant:
      case MemSpace::Texture:
      case MemSpace::Instruction:
        // Read-only spaces are immune to replay: freshness not needed.
        g.freshness = false;
        break;
      case MemSpace::Global:
      case MemSpace::Local:
        // Freshness needed unless the region is known read-only.
        g.freshness = !read_only;
        break;
    }
    return g;
}

} // namespace shmgpu
