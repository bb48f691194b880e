#include "gpu/interconnect.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "gpu/partition.hh"

namespace shmgpu::gpu
{

Interconnect::Interconnect(const InterconnectParams &params,
                           unsigned num_partitions)
    : config(params), toPartition(num_partitions), toSm(num_partitions)
{
    shm_assert(num_partitions > 0, "need at least one partition");
    shm_assert(config.bytesPerCycle > 0, "link bandwidth must be > 0");
    for (std::uint32_t bytes = 0; bytes <= tableBytes; ++bytes)
        serialize[bytes] = computeSerialize(bytes);
}

Cycle
Interconnect::computeSerialize(std::uint32_t bytes) const
{
    return std::max<Cycle>(static_cast<Cycle>(std::ceil(
                               static_cast<double>(bytes) /
                               config.bytesPerCycle)),
                           1);
}

Cycle
Interconnect::traverse(Link &link, std::uint32_t bytes, Cycle now)
{
    Cycle cycles = serializeCycles(bytes);
    Cycle start = std::max(now, link.busyUntil);
    link.busyUntil = start + cycles;
    return start + cycles + config.latency;
}

Cycle
Interconnect::request(PartitionId partition, std::uint32_t bytes,
                      Cycle now)
{
    ++statRequests;
    statRequestBytes += bytes;
    return traverse(toPartition.at(partition), bytes, now);
}

Cycle
Interconnect::reply(PartitionId partition, std::uint32_t bytes, Cycle now)
{
    ++statReplies;
    statReplyBytes += bytes;
    return traverse(toSm.at(partition), bytes, now);
}

Cycle
Interconnect::serveNow(const mem::Transaction &t, Partition &part)
{
    if (tracer)
        tracer->record(smLane, trace::EventKind::TxnEnqueue, t.issue,
                       static_cast<std::uint16_t>(t.sm), txnPayload(t));
    if (t.type == mem::AccessType::Read) {
        Cycle arrive = request(t.partition, config.requestBytes, t.issue);
        if (tracer)
            tracer->record(t.partition, trace::EventKind::TxnDequeue,
                           arrive,
                           static_cast<std::uint16_t>(t.partition),
                           txnPayload(t));
        Cycle ready = part.serve(t, arrive);
        return reply(t.partition, t.bytes, ready);
    }
    Cycle arrive =
        request(t.partition, config.requestBytes + t.bytes, t.issue);
    if (tracer)
        tracer->record(t.partition, trace::EventKind::TxnDequeue, arrive,
                       static_cast<std::uint16_t>(t.partition),
                       txnPayload(t));
    part.serve(t, arrive);
    return arrive;
}

void
Interconnect::regStats(stats::StatGroup *parent)
{
    statGroup.attach(parent, "icnt");
    statGroup.addScalar("requests", &statRequests,
                        "SM->partition messages");
    statGroup.addScalar("replies", &statReplies,
                        "partition->SM messages");
    statGroup.addScalar("request_bytes", &statRequestBytes, "");
    statGroup.addScalar("reply_bytes", &statReplyBytes, "");
}

} // namespace shmgpu::gpu
