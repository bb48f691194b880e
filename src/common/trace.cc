/**
 * @file
 * Tracer exporters and the class-mask parser.
 */

#include "common/trace.hh"

#include <algorithm>
#include <cctype>
#include <fstream>

#include "common/logging.hh"

namespace shmgpu::trace
{

const char *
kindName(EventKind kind)
{
    switch (kind) {
      case EventKind::KernelBegin: return "KernelBegin";
      case EventKind::KernelEnd: return "KernelEnd";
      case EventKind::SmIssue: return "SmIssue";
      case EventKind::SmRetire: return "SmRetire";
      case EventKind::TxnEnqueue: return "TxnEnqueue";
      case EventKind::TxnDequeue: return "TxnDequeue";
      case EventKind::CalendarSkip: return "CalendarSkip";
      case EventKind::L2Hit: return "L2Hit";
      case EventKind::L2Miss: return "L2Miss";
      case EventKind::VictimFill: return "VictimFill";
      case EventKind::CtrFetch: return "CtrFetch";
      case EventKind::MacFetch: return "MacFetch";
      case EventKind::BmtFetch: return "BmtFetch";
      case EventKind::ExtraFetch: return "ExtraFetch";
      case EventKind::VictimHit: return "VictimHit";
      case EventKind::RoTransition: return "RoTransition";
      case EventKind::StreamClassify: return "StreamClassify";
      case EventKind::TrackerTimeout: return "TrackerTimeout";
      case EventKind::NumKinds: break;
    }
    shm_panic("unknown event kind {}", static_cast<int>(kind));
}

const char *
className(EventClass cls)
{
    switch (cls) {
      case EventClass::Sm: return "sm";
      case EventClass::Txn: return "txn";
      case EventClass::Engine: return "engine";
      case EventClass::L2: return "l2";
      case EventClass::Mee: return "mee";
      case EventClass::Detect: return "detect";
      case EventClass::NumClasses: break;
    }
    shm_panic("unknown event class {}", static_cast<int>(cls));
}

std::uint32_t
parseClassMask(const std::string &csv, const std::string &where)
{
    std::uint32_t mask = 0;
    std::size_t pos = 0;
    while (pos <= csv.size()) {
        std::size_t comma = csv.find(',', pos);
        if (comma == std::string::npos)
            comma = csv.size();
        std::string name = csv.substr(pos, comma - pos);
        // Trim surrounding whitespace; config values may be padded.
        while (!name.empty() && std::isspace(
                   static_cast<unsigned char>(name.front())))
            name.erase(name.begin());
        while (!name.empty() && std::isspace(
                   static_cast<unsigned char>(name.back())))
            name.pop_back();
        if (!name.empty()) {
            if (name == "all") {
                mask |= allClassesMask;
            } else {
                bool found = false;
                for (unsigned c = 0;
                     c < static_cast<unsigned>(EventClass::NumClasses);
                     ++c) {
                    if (name == className(static_cast<EventClass>(c))) {
                        mask |= std::uint32_t{1} << c;
                        found = true;
                        break;
                    }
                }
                if (!found)
                    shm_fatal("{}unknown trace event class '{}' "
                              "(expected sm, txn, engine, l2, mee, "
                              "detect, or all)",
                              locationPrefix(where), name);
            }
        }
        pos = comma + 1;
    }
    if (mask == 0)
        shm_fatal("{}trace class filter '{}' selects no event classes",
                  locationPrefix(where), csv);
    return mask;
}

Tracer::Tracer(std::uint32_t num_lanes, const TraceParams &params)
    : config(params)
{
    shm_assert(num_lanes > 0, "a tracer needs at least one lane");
    lanes.resize(num_lanes);
    for (std::uint32_t i = 0; i < num_lanes; ++i)
        lanes[i].name = "lane " + std::to_string(i);
}

void
Tracer::setLaneName(std::uint32_t lane, std::string name)
{
    lanes[lane].name = std::move(name);
}

namespace
{

/** Events tagged with their lane for export. */
struct TaggedEvent
{
    Event event;
    std::uint32_t lane;
};

void
appendHexU64(std::string &out, std::uint64_t value)
{
    static const char digits[] = "0123456789abcdef";
    out += "0x";
    bool started = false;
    for (int shift = 60; shift >= 0; shift -= 4) {
        unsigned nibble = (value >> shift) & 0xf;
        if (nibble != 0 || started || shift == 0) {
            out += digits[nibble];
            started = true;
        }
    }
}

void
appendJsonString(std::string &out, const std::string &s)
{
    out += '"';
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                out += "\\u00";
                out += "0123456789abcdef"[(c >> 4) & 0xf];
                out += "0123456789abcdef"[c & 0xf];
            } else {
                out += c;
            }
        }
    }
    out += '"';
}

} // namespace

std::vector<Event>
Tracer::collectSorted() const
{
    std::vector<Event> all;
    std::size_t total = 0;
    for (const Lane &lane : lanes)
        total += lane.events.size();
    all.reserve(total);
    for (const Lane &lane : lanes)
        all.insert(all.end(), lane.events.begin(), lane.events.end());
    // Stable: ties keep lane-major order, which is deterministic
    // because each lane's sequence is its FIFO emission order.
    std::stable_sort(all.begin(), all.end(),
                     [](const Event &a, const Event &b) {
                         return a.cycle < b.cycle;
                     });
    return all;
}

void
Tracer::writeChromeJson(std::ostream &os) const
{
    std::string buf;
    buf.reserve(1 << 16);
    os << "{\"traceEvents\":[\n";
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
          "\"args\":{\"name\":\"shmgpu\"}}";
    for (std::uint32_t i = 0; i < numLanes(); ++i) {
        buf.clear();
        buf += ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
               "\"tid\":";
        buf += std::to_string(i);
        buf += ",\"args\":{\"name\":";
        appendJsonString(buf, lanes[i].name);
        buf += "}}";
        os << buf;
    }
    // Lane-major with a per-event stable sort key is what
    // collectSorted() gives; tag lanes first so tid survives the sort.
    std::vector<TaggedEvent> all;
    {
        std::size_t total = 0;
        for (const Lane &lane : lanes)
            total += lane.events.size();
        all.reserve(total);
        for (std::uint32_t i = 0; i < numLanes(); ++i)
            for (const Event &e : lanes[i].events)
                all.push_back({e, i});
        std::stable_sort(all.begin(), all.end(),
                         [](const TaggedEvent &a, const TaggedEvent &b) {
                             return a.event.cycle < b.event.cycle;
                         });
    }
    for (const TaggedEvent &t : all) {
        const Event &e = t.event;
        buf.clear();
        buf += ",\n{\"name\":\"";
        buf += kindName(e.kind);
        buf += "\",\"cat\":\"";
        buf += className(classOf(e.kind));
        buf += "\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":";
        buf += std::to_string(t.lane);
        buf += ",\"ts\":";
        buf += std::to_string(e.cycle);
        buf += ",\"args\":{\"component\":";
        buf += std::to_string(e.component);
        buf += ",\"tenant\":";
        buf += std::to_string(e.tenant);
        buf += ",\"payload\":\"";
        appendHexU64(buf, e.payload);
        buf += "\"}}";
        os << buf;
    }
    os << "\n],\"displayTimeUnit\":\"ns\",\"otherData\":{"
          "\"tool\":\"shmgpu\",\"time_unit\":\"cycles\"}}\n";
}

void
Tracer::writeText(std::ostream &os) const
{
    std::vector<Event> all = collectSorted();
    std::string buf;
    for (const Event &e : all) {
        buf.clear();
        buf += "cycle=";
        buf += std::to_string(e.cycle);
        buf += " class=";
        buf += className(classOf(e.kind));
        buf += " kind=";
        buf += kindName(e.kind);
        buf += " component=";
        buf += std::to_string(e.component);
        buf += " tenant=";
        buf += std::to_string(e.tenant);
        buf += " payload=";
        appendHexU64(buf, e.payload);
        buf += '\n';
        os << buf;
    }
    os << "# events=" << all.size() << '\n';
}

void
exportTrace(const Tracer &tracer, const std::string &chrome_path,
            const std::string &text_path)
{
    auto write = [](const std::string &path, auto &&emit) {
        if (path.empty())
            return;
        std::ofstream os(path, std::ios::binary);
        if (!os)
            shm_fatal("cannot open trace file '{}' for writing", path);
        emit(os);
    };
    write(chrome_path, [&](std::ostream &os) { tracer.writeChromeJson(os); });
    write(text_path, [&](std::ostream &os) { tracer.writeText(os); });
}

} // namespace shmgpu::trace
