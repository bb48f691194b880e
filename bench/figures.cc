/**
 * @file
 * The figures driver: each paper table, figure and ablation is one
 * declaration that requests its cells, prints its tables and judges
 * its claims. Declarations run twice: a planning pass collects the
 * requests, then every distinct cell is simulated once on
 * core::runCellPool (one RunMemo per GPU preset) and the second
 * pass prints; the output is bit-identical at any --jobs. A workload
 * whose truth profile some cell reads has one Baseline run, which
 * carries the truth and normalizes every cell of the workload.
 *
 * --quick caps kernels at 25k cycles instead of 100k; --out writes one
 * grid figure's cells as a sweep JSON document. A failing claim (over
 * a figure's own workloads, so not under --workload) is named on
 * stderr and makes the exit status 1.
 */

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>

#include "common/args.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "core/sweep.hh"
#include "detect/oracle.hh"
#include "detect/readonly.hh"
#include "detect/streaming.hh"
#include "gpu/presets.hh"

using namespace shmgpu;

namespace
{

using schemes::Scheme;
using Strings = std::vector<std::string>;
using Workloads = std::vector<const workload::WorkloadSpec *>;

/** What one cell produced (ratios: profile cells only). */
struct CellResult
{
    core::ExperimentResult result;
    detect::AccessProfile::Ratios ratios;
};
using Cells = std::vector<const CellResult *>;
using Metric = double (*)(const CellResult *);

/** The cells of a set of figures (each simulated once) and the output. */
struct Plan
{
    gpu::GpuParams
    gpu(const std::string &preset = "turing") const
    {
        gpu::GpuParams gp = gpu::presetByName(preset);
        gp.maxCyclesPerKernel = cycles;
        return gp;
    }

    /** The --workload one, else @p names (all sixteen if none). */
    Workloads
    workloads(const Strings &names = {}) const
    {
        Workloads out;
        for (const auto &name : only.empty() ? names : Strings{only})
            out.push_back(&workload::findWorkload(name));
        for (const auto &w : workload::allWorkloads())
            if (names.empty() && only.empty())
                out.push_back(&w);
        return out;
    }

    /** An Experiment cell, with the Fig. 10/11 tallies if @p accuracy. */
    const CellResult *
    scheme(const workload::WorkloadSpec &w, Scheme s, bool accuracy = false,
           const std::string &preset = "turing")
    {
        core::RunOptions options;
        options.collectAccuracy = accuracy;
        if (core::readsTruth(s, options))
            base(preset)->shareTruth(w, schemes::makeMeeParams(s));
        return cell(preset + "/" + w.name + "/" + schemes::schemeName(s) +
                        (accuracy ? "/accuracy" : ""),
                    [&w, s, options, base = base(preset)](CellResult &c) {
                        c.result = core::Experiment(base).run(s, w, options);
                    });
    }

    /** @p s's MeeParams after @p tweak, named @p label; one honouring
     *  programming-model hints declares every host copy read-only. */
    const CellResult *
    variant(const workload::WorkloadSpec &w, Scheme s,
            const std::string &label,
            const std::function<void(mee::MeeParams &)> &tweak)
    {
        mee::MeeParams mp = schemes::makeMeeParams(s);
        tweak(mp);
        if (mp == schemes::makeMeeParams(s))
            return scheme(w, s); // the variant is the scheme itself
        return cell("turing/" + w.name + "/" + schemes::schemeName(s) + "/" +
                        label,
                    [=, this, &w, base = base("turing")](auto &c) {
            workload::WorkloadSpec spec = w;
            for (auto &k : spec.kernels)
                for (auto &copy : k.preCopies)
                    copy.declaredReadOnly |= mp.programmingModelHints;
            c.result.metrics =
                core::measure(gpu(), s, mp,
                              workload::singleTenantScenario(spec))
                    .total;
            c.result.baseline = base->metricsFor(w);
            c.result.normalizedIpc =
                c.result.metrics.ipc / c.result.baseline.ipc;
        });
    }

    /** Per workload, the Baseline run carrying its Fig.-5 profile. */
    Cells
    profiles(const Workloads &ws)
    {
        Cells out;
        for (const auto *w : ws) {
            base("turing")->shareTruth(*w, mee::MeeParams{});
            out.push_back(cell("turing/" + w->name + "/profile",
                               [w, base = base("turing")](auto &c) {
                const core::MemoRun &run = base->truthFor(
                    workload::singleTenantScenario(*w), mee::MeeParams{});
                c.result.metrics = run.metrics.total;
                c.ratios = run.truth->accessRatios();
            }));
        }
        return out;
    }

    /** Simulate every requested cell on one pool; end planning. */
    void
    run(unsigned jobs)
    {
        core::SweepOptions options;
        options.jobs = jobs;
        core::runCellPool(pending.size(), options, [&](std::size_t i) {
            pending[i].second(*pending[i].first);
            return false;
        });
        planning = false;
    }

    void
    table(const std::string &title, const TextTable &table)
    {
        if (planning)
            return;
        std::cout << "\n== " << title << " ==\n";
        csv ? table.printCsv(std::cout) : table.print(std::cout);
    }

    /** Claim @p name holds when @p violation is empty. */
    void
    claim(const std::string &name, const std::string &violation)
    {
        if (planning || !only.empty() || violation.empty())
            return;
        std::cerr << "claim " << name << " fails: " << violation << "\n";
        ++failed;
    }

    /** The cell under @p key: the placeholder while planning. */
    const CellResult *
    cell(const std::string &key, std::function<void(CellResult &)> fill)
    {
        auto &slot = cells[key];
        if (!slot) {
            slot = std::make_unique<CellResult>();
            pending.emplace_back(slot.get(), std::move(fill));
        }
        return planning ? &placeholder : slot.get();
    }

    std::shared_ptr<core::RunMemo>
    base(const std::string &preset)
    {
        auto &cache = caches[preset];
        if (!cache)
            cache = std::make_shared<core::RunMemo>(gpu(preset));
        return cache;
    }

    Cycle cycles = 100000; //!< kernel cap
    std::string only;      //!< the --workload filter
    bool csv = false;
    bool planning = true;
    int failed = 0;
    Cells sunk; //!< what --out writes (grid figures)
    /** Read while planning; unit normalized values keep its math sound. */
    CellResult placeholder{{"", "", "", "", {}, {}, 1, 1}, {}};
    std::map<std::string, std::shared_ptr<core::RunMemo>> caches;
    std::map<std::string, std::unique_ptr<CellResult>> cells;
    std::vector<std::pair<CellResult *, std::function<void(CellResult &)>>>
        pending;
};

double ipc(const CellResult *c) { return c->result.normalizedIpc; }
double epi(const CellResult *c) { return c->result.normalizedEnergyPerInstr; }
double mdo(const CellResult *c) { return c->result.metrics.metadataOverhead(); }
std::string num(double v) { return TextTable::num(v, 3); }
std::string pct(double v) { return TextTable::pct(v); }

/** Cells of @p designs on each of @p ws, workload-major. */
Cells
grid(Plan &p, const Workloads &ws, const std::vector<Scheme> &designs,
     bool accuracy = false, const std::string &preset = "turing")
{
    Cells out;
    for (const auto *w : ws)
        for (Scheme s : designs)
            out.push_back(p.scheme(*w, s, accuracy, preset));
    return out;
}

/** Each column's geomean (or mean) of @p metric, a grid @p width wide. */
std::vector<double>
means(const Cells &cells, std::size_t width, Metric metric,
      bool arithmetic = false)
{
    std::vector<double> out;
    for (std::size_t i = 0; i < width; ++i) {
        std::vector<double> col;
        double sum = 0;
        for (std::size_t at = i; at < cells.size(); at += width)
            sum += col.emplace_back(metric(cells[at]));
        out.push_back(arithmetic ? sum / static_cast<double>(col.size())
                                 : core::geomean(col));
    }
    return out;
}

/** Workload rows: the name, then @p metric of its grid row's cells. */
TextTable
rows(const Workloads &ws, Strings header, const Cells &cells,
     Metric metric = ipc)
{
    const std::size_t width = header.size() - 1;
    TextTable table(std::move(header));
    for (std::size_t r = 0; r < ws.size(); ++r) {
        Strings row = {ws[r]->name};
        for (std::size_t i = 0; i < width; ++i)
            row.push_back(num(metric(cells[r * width + i])));
        table.addRow(row);
    }
    return table;
}

/** @{ Claim helpers, each returning the violations (empty: none). The
 *  rows of @p ws failing @p ok, bar @p except and, if given, those not
 *  @p among: */
std::string
failing(const Workloads &ws, const std::function<bool(std::size_t)> &ok,
        const Strings &except = {}, const Strings &among = {})
{
    std::string bad;
    for (std::size_t r = 0; r < ws.size(); ++r) {
        auto in = [&](const Strings &set) {
            return std::count(set.begin(), set.end(), ws[r]->name) > 0;
        };
        if (!ok(r) && !in(except) && (among.empty() || in(among)))
            bad += ws[r]->name + "; ";
    }
    return bad;
}

/** Rows where IPC column @p lo tops column @p hi by over @p slack: */
std::string
ordered(const Workloads &ws, const Cells &cells, std::size_t width,
        std::size_t lo, std::size_t hi, const Strings &except = {},
        double slack = 0)
{
    return failing(ws, [&](std::size_t r) {
        return ipc(cells[r * width + lo]) <= ipc(cells[r * width + hi]) + slack;
    }, except);
}

/** Steps where @p v fails to rise strictly (to fall when @p sign is
 *  -1); the last step may tie when @p tie: */
std::string
chain(const std::vector<double> &v, double sign = 1, bool tie = false)
{
    std::string bad;
    for (std::size_t i = 0; i + 1 < v.size(); ++i) {
        const double a = sign * v[i], b = sign * v[i + 1];
        if (tie && i + 2 == v.size() ? a > b : a >= b)
            bad += num(v[i]) + " vs " + num(v[i + 1]) + "; ";
    }
    return bad;
}
/** @} */

/** Figs. 12/13/15: workload rows, scheme columns, a geomean footer. */
Cells
sweep(Plan &p, const Workloads &ws, const std::string &title,
      const std::vector<Scheme> &designs, Metric metric)
{
    const Cells cells = p.sunk = grid(p, ws, designs);
    Strings header = {"workload"}, footer = {"geomean"};
    for (Scheme s : designs)
        header.push_back(schemes::schemeName(s));
    for (double v : means(cells, designs.size(), metric))
        footer.push_back(num(v));
    TextTable table = rows(ws, header, cells, metric);
    table.addRow(footer);
    p.table(title, table);
    return cells;
}

void
tables12(Plan &p)
{
    // Per row: name, location or property, space (none: on-chip),
    // read-only, and the mechanisms the paper's table lists.
    struct Row
    {
        const char *name, *what;
        std::optional<MemSpace> space;
        bool readOnly;
        std::string paper;
    };
    std::string bad;
    auto print = [&](const char *title, Strings header,
                     const std::vector<Row> &rows) {
        TextTable table(std::move(header));
        for (const Row &r : rows) {
            const Guarantees g = r.space
                                     ? requiredGuarantees(*r.space, r.readOnly)
                                     : Guarantees{false, false, false};
            std::string got;
            for (auto [on, mark] : {std::pair{g.confidentiality, "C"},
                                    {g.integrity, "I"}, {g.freshness, "F"}})
                got += on ? (got.empty() ? "" : " + ") + std::string(mark) : "";
            got = got.empty() ? "-" : got;
            table.addRow({r.name, r.what, got});
            bad += got == r.paper ? "" : std::string(r.name) + "; ";
        }
        p.table(title, table);
    };
    using M = MemSpace;
    print("Table I — Security mechanisms for GPU heterogeneous memory",
          {"Space", "Location", "Mechanisms"},
          {{"Register", "on-chip", {}, false, "-"},
           {"Local Memory", "off-chip", M::Local, false, "C + I + F"},
           {"Shared Memory", "on-chip", {}, false, "-"},
           {"Global Memory", "off-chip", M::Global, false, "C + I + F"},
           {"Constant Memory", "off-chip", M::Constant, true, "C + I"},
           {"Texture Memory", "off-chip", M::Texture, true, "C + I"},
           {"Caches", "on-chip", {}, false, "-"}});
    print("Table II — Security mechanisms for application data",
          {"Data", "Property", "Guarantees"},
          {{"Application code", "Read-only", M::Instruction, true, "C + I"},
           {"Input", "Read-only", M::Global, true, "C + I"},
           {"Output", "Read/Write", M::Global, false, "C + I + F"},
           {"In-flight Data", "Read/Write", M::Global, false, "C + I + F"}});
    p.claim("table1_2.paper_mechanisms", bad);
}

void
table9(Plan &p)
{
    // Per-partition bits: read-only vector, streaming vector, MATs.
    auto detectorBits = [](const mee::MeeParams &m) {
        const std::uint64_t vec = m.streamDetector.entries;
        return std::array<std::uint64_t, 3>{
            detect::ReadOnlyDetector(m.roDetector).hardwareBits(), vec,
            detect::StreamingDetector(m.streamDetector).hardwareBits() - vec};
    };
    auto mee = schemes::makeMeeParams(Scheme::Shm);
    const unsigned parts = p.gpu().numPartitions;
    const auto [ro, vec, mat] = detectorBits(mee);
    const std::uint32_t mats = mee.streamDetector.trackers;
    TextTable table({"Hardware", "Entries", "Entry size", "Total bits", "Bytes"});
    auto add = [&](std::string what, std::string entries, std::string size,
                   std::uint64_t bits) {
        table.addRow({what, entries, size, std::to_string(bits),
                      TextTable::num(bits / 8.0, 0)});
    };
    add("read-only predictor", std::to_string(mee.roDetector.entries),
        "1 bit", ro);
    add("streaming predictor", std::to_string(vec), "1 bit", vec);
    add("access trackers (" + std::to_string(mats) + "x)",
        std::to_string(mats), std::to_string(mat / mats) + " bit", mat);
    add("per partition", "", "", ro + vec + mat);
    add("GPU total (" + std::to_string(parts) + " partitions)", "", "",
        (ro + vec + mat) * parts);
    p.table("Table IX — Hardware overhead of the detectors", table);
    if (!p.planning)
        std::cout << "(paper: 8 MATs at 128 B access granularity = 71 B; "
                     "this simulator monitors 32 B sectors and provisions 16 "
                     "MATs for the same effective capacity)\n";
    // Table IX: 128 B + 256 B + 8 x 71 bit per partition, 5,460 B total.
    mee.streamDetector.trackers = 8;
    const auto [ro8, vec8, mat8] = detectorBits(mee);
    const auto bytes = (ro8 + vec8 + mat8) * parts / 8;
    p.claim("table9.paper_total_with_8_mats",
            bytes == 5460 ? "" : std::to_string(bytes) + " B");
}

void
fig05(Plan &p)
{
    const Workloads ws = p.workloads();
    const Cells c = p.profiles(ws);
    TextTable table({"workload", "streaming", "read-only", "accesses"});
    for (std::size_t r = 0; r < ws.size(); ++r)
        table.addRow({ws[r]->name, pct(c[r]->ratios.streaming),
                      pct(c[r]->ratios.readOnly),
                      std::to_string(c[r]->ratios.totalAccesses)});
    p.table("Fig. 5 — Share of off-chip accesses touching streaming / "
            "read-only data",
            table);
    p.claim("fig05.graphs_never_stream", failing(ws, [&](std::size_t r) {
                return c[r]->ratios.streaming < 0.01;
            }, {}, {"bfs", "b+tree"}));
    p.claim("fig05.inputs_read_only", failing(ws, [&](std::size_t r) {
                return c[r]->ratios.readOnly >= 0.90;
            }, {}, {"atax", "mvt", "kmeans", "b+tree", "streamcluster"}));
}

void
calibration(Plan &p)
{
    const Workloads ws = p.workloads();
    const Cells c = p.profiles(ws);
    // The Table VII band with the +-20% acceptance window.
    auto inBand = [&](std::size_t r) {
        const double util = c[r]->result.metrics.bandwidthUtilization;
        return util >= ws[r]->bwUtilLo * 0.8 &&
               util <= ws[r]->bwUtilHi * 1.2 + 0.02;
    };
    TextTable table({"workload", "util", "target-band", "in-band", "ipc",
                     "l2miss", "stream%", "ro%"});
    for (std::size_t r = 0; r < ws.size(); ++r) {
        const gpu::RunMetrics &m = c[r]->result.metrics;
        table.addRow({ws[r]->name, pct(m.bandwidthUtilization),
                      TextTable::pct(ws[r]->bwUtilLo, 0) + "-" +
                          TextTable::pct(ws[r]->bwUtilHi, 0),
                      inBand(r) ? "yes" : "NO", TextTable::num(m.ipc, 1),
                      pct(m.l2MissRate), pct(c[r]->ratios.streaming),
                      pct(c[r]->ratios.readOnly)});
    }
    p.table("Calibration — baseline bandwidth utilization vs. Table VII",
            table);
    p.claim("calibration.in_band", failing(ws, inBand, {"b+tree", "mvt", "srad"}));
}

/** Figs. 10/11: shares of SHM's read-only (or streaming) predictions. */
void
predictions(Plan &p, bool streaming)
{
    using M = gpu::RunMetrics;
    const auto tallies =
        streaming ? std::vector<double M::*>{&M::strCorrect, &M::strMpInit,
                                             &M::strMpRuntimeRo,
                                             &M::strMpRuntimeNonRo,
                                             &M::strMpAliasing}
                  : std::vector<double M::*>{&M::roCorrect, &M::roMpInit,
                                             &M::roMpAliasing};
    const std::string fig = streaming ? "fig11" : "fig10";
    TextTable table(streaming ? Strings{"workload", "Correct-Prediction",
                                        "MP_Init", "MP_Runtime_Read_Only",
                                        "MP_Runtime_Non_Read_Only",
                                        "MP_Aliasing"}
                              : Strings{"workload", "Correct-Prediction",
                                        "MP_Init", "MP_Aliasing"});
    const Workloads ws = p.workloads();
    const Cells cells = p.sunk = grid(p, ws, {Scheme::Shm}, true);
    double correct = 0;
    std::string aliasing;
    for (std::size_t r = 0; r < ws.size(); ++r) {
        std::vector<double> v;
        double total = 0;
        for (auto tally : tallies)
            total += v.emplace_back(cells[r]->result.metrics.*tally);
        Strings row = {ws[r]->name};
        for (double &x : v)
            row.push_back(pct(x /= total == 0 ? 1 : total));
        table.addRow(row);
        correct += v[0];
        // Fig. 10: aliasing is negligible; Fig. 11: the rest outweighs it.
        if (streaming ? v.back() > 1 - v[0] - v.back() : v.back() > 1e-4)
            aliasing += ws[r]->name + "; ";
    }
    correct /= static_cast<double>(ws.size());
    table.addRow({"average", pct(correct)});
    p.table(streaming ? "Fig. 11 — Breakdown of streaming-pattern predictions"
                      : "Fig. 10 — Breakdown of read-only predictions",
            table);
    // Within 10 pp of the paper's average (89.31% / 83.36% correct).
    const double paper = streaming ? 0.8336 : 0.8931;
    p.claim(fig + ".correct_near_paper",
            std::abs(correct - paper) <= 0.10 ? "" : pct(correct));
    p.claim(fig + ".aliasing_minor", aliasing);
}

void
fig12(Plan &p)
{
    const Workloads ws = p.workloads();
    const Cells c = sweep(p, ws,
                          "Fig. 12 — Normalized IPC of secure GPU memory designs",
                          {Scheme::Naive, Scheme::CommonCtr, Scheme::Pssm,
                           Scheme::Shm, Scheme::ShmUpperBound},
                          ipc);
    auto shm = [&](std::size_t r) { return ipc(c[r * 5 + 3]); };
    p.claim("fig12.geomean_order", chain(means(c, 5, ipc), 1, true));
    p.claim("fig12.naive_below_common_ctr", ordered(ws, c, 5, 0, 1));
    p.claim("fig12.common_ctr_below_pssm",
            ordered(ws, c, 5, 1, 2, {"b+tree", "sad", "srad", "stencil"}));
    p.claim("fig12.pssm_below_shm",
            ordered(ws, c, 5, 2, 3, {"cfd", "srad", "stencil"}));
    p.claim("fig12.shm_below_upper_bound", ordered(ws, c, 5, 3, 4));
    p.claim("fig12.shm_free_on_streaming",
            failing(ws, [&](std::size_t r) { return shm(r) >= 0.998; }, {},
                    {"kmeans", "sad", "streamcluster", "srad_v2", "backprop",
                     "histo"}));
    // bfs, lbm and mri-gridding are SHM's three costliest workloads.
    p.claim("fig12.random_tail", failing(ws, [&](std::size_t r) {
                int costlier = 0;
                for (std::size_t o = 0; o < ws.size(); ++o)
                    costlier += shm(o) < shm(r);
                return costlier < 3;
            }, {}, {"bfs", "lbm", "mri-gridding"}));
}

void
fig13(Plan &p)
{
    const Workloads ws = p.workloads();
    const Cells c = sweep(p, ws,
                          "Fig. 13 — Performance impact of individual "
                          "optimizations (normalized IPC)",
                          {Scheme::Pssm, Scheme::PssmCctr, Scheme::ShmReadOnly,
                           Scheme::Shm, Scheme::ShmCctr},
                          ipc);
    const auto g = means(c, 5, ipc);
    p.claim("fig13.common_counters_help", chain({g[0], g[1]}));
    p.claim("fig13.read_only_helps", chain({g[0], g[2]}));
    p.claim("fig13.dual_mac_helps_streams", failing(ws, [&](std::size_t r) {
                return ipc(c[r * 5 + 3]) > ipc(c[r * 5 + 2]);
            }, {}, {"atax", "fdtd2d", "mvt"}));
}

void
fig14(Plan &p)
{
    const Workloads ws = p.workloads();
    const Cells c = p.sunk = grid(
        p, ws, {Scheme::Naive, Scheme::Pssm, Scheme::ShmReadOnly, Scheme::Shm});
    TextTable table({"workload", "Naive", "PSSM", "SHM_readOnly", "SHM",
                     "SHM:ctr", "SHM:mac", "SHM:bmt", "SHM:extra"});
    for (std::size_t r = 0; r < ws.size(); ++r) {
        Strings row = {ws[r]->name};
        for (std::size_t i = 0; i < 4; ++i)
            row.push_back(pct(mdo(c[r * 4 + i])));
        const gpu::RunMetrics &shm = c[r * 4 + 3]->result.metrics;
        const double data = static_cast<double>(shm.bytesData);
        for (std::uint64_t b :
             {shm.bytesCounter, shm.bytesMac, shm.bytesBmt, shm.bytesExtra})
            row.push_back(pct(data > 0 ? b / data : 0));
        table.addRow(row);
    }
    const auto mean = means(c, 4, mdo, true);
    table.addRow({"mean", pct(mean[0]), pct(mean[1]), pct(mean[2]),
                  pct(mean[3])});
    p.table("Fig. 14 — Metadata bandwidth overhead relative to regular data",
            table);
    p.claim("fig14.mean_order", chain({mean[0], mean[1], mean[2]}, -1));
    p.claim("fig14.shm_below_pssm", chain({mean[1], mean[3]}, -1));
}

void
fig15(Plan &p)
{
    const Cells c = sweep(p, p.workloads(),
                          "Fig. 15 — Normalized energy per instruction",
                          {Scheme::Naive, Scheme::CommonCtr, Scheme::Pssm,
                           Scheme::Shm},
                          epi);
    // Naive > Common_ctr > PSSM > SHM > the unprotected GPU.
    auto g = means(c, 4, epi);
    g.push_back(1.0);
    p.claim("fig15.geomean_order", chain(g, -1));
}

void
fig16(Plan &p)
{
    const Workloads ws = p.workloads();
    const Cells c = p.sunk = grid(p, ws, {Scheme::Shm, Scheme::ShmVL2});
    TextTable table({"workload", "SHM", "SHM_vL2", "delta", "victim_hits",
                     "victim_inserts"});
    for (std::size_t r = 0; r < ws.size(); ++r) {
        const auto &shm = c[r * 2]->result, &vl2 = c[r * 2 + 1]->result;
        table.addRow({ws[r]->name, num(shm.normalizedIpc),
                      num(vl2.normalizedIpc),
                      pct(vl2.normalizedIpc - shm.normalizedIpc),
                      TextTable::num(vl2.metrics.victimHits, 0),
                      TextTable::num(vl2.metrics.victimInserts, 0)});
    }
    const auto g = means(c, 2, ipc);
    table.addRow({"geomean", num(g[0]), num(g[1]), pct(g[1] - g[0])});
    p.table("Fig. 16 — SHM with the L2 as a metadata victim cache", table);
    p.claim("fig16.never_slower", ordered(ws, c, 2, 0, 1, {}, 0.002));
    p.claim("fig16.geomean_gain", chain(g));
}

/** Cells of @p s on each of @p ws for each of @p values, via @p set. */
template <typename T>
Cells
knob(Plan &p, const Workloads &ws, Scheme s, const std::string &what,
     std::vector<T> values, void (*set)(mee::MeeParams &, T))
{
    Cells out;
    for (const auto *w : ws)
        for (T v : values)
            out.push_back(p.variant(*w, s, what + "=" + std::to_string(v),
                                    [=](auto &mp) { set(mp, v); }));
    return out;
}

void
ablationDetectors(Plan &p)
{
    const Workloads ws = p.workloads({"fdtd2d", "kmeans", "bfs"});
    const Cells mats = knob<std::uint32_t>(
        p, ws, Scheme::Shm, "mats", {2, 4, 8, 16, 0},
        [](auto &mp, std::uint32_t n) { mp.streamDetector.trackers = n; });
    const Cells chunks = knob<std::uint64_t>(
        p, ws, Scheme::Shm, "chunk", {1024, 2048, 4096, 8192},
        [](auto &mp, std::uint64_t b) { mp.streamDetector.chunkBytes = b; });
    const Cells sizes = knob<std::uint32_t>(
        p, ws, Scheme::Shm, "predictors", {256, 1024, 4096},
        [](auto &mp, std::uint32_t n) {
            mp.roDetector.entries = n;
            mp.streamDetector.entries = n * 2;
        });
    p.table("Ablation — memory-access-tracker count (normalized IPC, SHM)",
            rows(ws, {"workload", "MATs=2", "MATs=4", "MATs=8", "MATs=16",
                      "unlimited"},
                 mats));
    p.table("Ablation — coarse-MAC chunk size (normalized IPC, SHM)",
            rows(ws, {"workload", "1KB", "2KB", "4KB", "8KB"}, chunks));
    p.table("Ablation — predictor bit-vector sizes (normalized IPC, SHM)",
            rows(ws, {"workload", "RO=256/STR=512", "RO=1K/STR=2K",
                      "RO=4K/STR=8K"},
                 sizes));
    // The provisioned 4 KB chunk is the best size for streaming fdtd2d.
    p.claim("ablation_detectors.chunk_4kb_best_on_fdtd2d",
            failing(ws, [&](std::size_t r) {
                auto at = [&](std::size_t i) { return ipc(chunks[r * 4 + i]); };
                return std::max({at(0), at(1), at(3)}) <= at(2);
            }, {}, {"fdtd2d"}));
}

void
ablationMdc(Plan &p)
{
    const Workloads ws = p.workloads({"lbm", "srad_v2", "mri-gridding"});
    Cells c;
    for (const auto *w : ws)
        for (Scheme s : {Scheme::Pssm, Scheme::Shm})
            for (std::uint64_t size : {1024, 2048, 4096, 8192})
                c.push_back(p.variant(*w, s, "mdc=" + std::to_string(size),
                                      [size](auto &mp) {
                                          mp.counterCache.sizeBytes = size;
                                          mp.macCache.sizeBytes = size;
                                          mp.bmtCache.sizeBytes = size;
                                      }));
    TextTable table({"workload", "scheme", "1KB", "2KB", "4KB", "8KB"});
    for (std::size_t r = 0; r < c.size() / 4; ++r)
        table.addRow({ws[r / 2]->name, r % 2 ? "SHM" : "PSSM",
                      num(ipc(c[r * 4])), num(ipc(c[r * 4 + 1])),
                      num(ipc(c[r * 4 + 2])), num(ipc(c[r * 4 + 3]))});
    p.table("Ablation — metadata cache capacity per partition (normalized IPC)",
            table);
    // PSSM gains at least as much from 8x the capacity as SHM does.
    p.claim("ablation_mdc.pssm_gains_more", failing(ws, [&](std::size_t r) {
                return ipc(c[r * 8 + 3]) - ipc(c[r * 8]) >=
                       ipc(c[r * 8 + 7]) - ipc(c[r * 8 + 4]);
            }));
}

void
ablationExtensions(Plan &p)
{
    const Workloads ws = p.workloads({"kmeans", "sad", "b+tree", "fdtd2d"});
    // Bit 0: static space hints; bit 1: read-only declarations.
    const Cells hints = knob<int>(p, ws, Scheme::Shm, "hints", {0, 1, 2, 3},
                                  [](auto &mp, int h) {
                                      mp.staticSpaceHints = h & 1;
                                      mp.programmingModelHints = h & 2;
                                  });
    Cells mac;
    for (const auto *w : ws) {
        mac.push_back(p.scheme(*w, Scheme::Pssm));
        mac.push_back(p.variant(*w, Scheme::Pssm, "mac=4",
                                [](auto &mp) { mp.macBytes = 4; }));
        mac.push_back(p.scheme(*w, Scheme::Shm));
    }
    const Cells arity = knob<std::uint32_t>(
        p, ws, Scheme::Shm, "arity", {8, 16, 32},
        [](auto &mp, std::uint32_t a) { mp.bmtArity = a; });
    p.table("Ablation — read-only hint sources (normalized IPC, SHM)",
            rows(ws, {"workload", "SHM", "+static-space", "+declared-RO",
                      "+both"},
                 hints));
    p.table("Ablation — integrity-tree arity (normalized IPC, SHM; scheme is "
            "tree-independent per Section II-B)",
            rows(ws, {"workload", "arity=8", "arity=16", "arity=32"}, arity));
    p.table("Ablation — stored MAC width. 4 B MACs fall below the birthday "
            "bound for 4 GB (Section III-C: need >= 50 bits); SHM keeps 8 B "
            "MACs and wins on bandwidth instead",
            rows(ws, {"workload", "PSSM 8B MAC", "PSSM 4B MAC", "SHM 8B MAC"},
                 mac));
    p.claim("ablation_extensions.hints_never_hurt", ordered(ws, hints, 4, 0, 3));
    p.claim("ablation_extensions.short_macs_save", ordered(ws, mac, 3, 0, 1));
    // Tree independence: arity 8 vs 32 moves normalized IPC <= 0.5 pp.
    p.claim("ablation_extensions.arity_marginal",
            ordered(ws, arity, 3, 0, 2, {}, 0.005) +
                ordered(ws, arity, 3, 2, 0, {}, 0.005));
}

void
ablationGpuScale(Plan &p)
{
    const Workloads ws = p.workloads({"fdtd2d", "kmeans", "lbm"});
    const std::vector<Scheme> designs = {Scheme::Naive, Scheme::Pssm,
                                         Scheme::Shm};
    const Cells turing = grid(p, ws, designs, false, "turing");
    const Cells big = grid(p, ws, designs, false, "big");
    TextTable table({"workload", "preset", "Naive", "PSSM", "SHM"});
    for (const auto &[preset, c] :
         {std::pair{"turing", turing}, std::pair{"big", big}})
        for (std::size_t r = 0; r < ws.size(); ++r)
            table.addRow({ws[r]->name, preset, num(ipc(c[r * 3])),
                          num(ipc(c[r * 3 + 1])), num(ipc(c[r * 3 + 2]))});
    p.table("Ablation — GPU scale (normalized IPC; 'big' doubles SMs and L2 "
            "with only ~33% more bandwidth)",
            table);
    // The wider machine widens SHM's margin over PSSM.
    p.claim("ablation_gpu_scale.margin_widens", failing(ws, [&](std::size_t r) {
                return ipc(big[r * 3 + 2]) - ipc(big[r * 3 + 1]) >=
                       ipc(turing[r * 3 + 2]) - ipc(turing[r * 3 + 1]);
            }, {"lbm"}));
}

/** Every declaration by name, in paper order. */
const std::vector<std::pair<std::string, void (*)(Plan &)>> figures = {
    {"table1_2_mechanisms", tables12},
    {"table9_hw_overhead", table9},
    {"fig05_access_ratios", fig05},
    {"fig10_readonly_pred", [](Plan &p) { predictions(p, false); }},
    {"fig11_streaming_pred", [](Plan &p) { predictions(p, true); }},
    {"fig12_overall_ipc", fig12},
    {"fig13_breakdown", fig13},
    {"fig14_bandwidth", fig14},
    {"fig15_energy", fig15},
    {"fig16_victim_cache", fig16},
    {"calibration", calibration},
    {"ablation_detectors", ablationDetectors},
    {"ablation_mdc", ablationMdc},
    {"ablation_extensions", ablationExtensions},
    {"ablation_gpu_scale", ablationGpuScale},
};

} // namespace

int
main(int argc, char **argv)
{
    const Args args(argc, argv, 1, "figures",
                    {"figure", "all", "list", "quick", "csv", "workload",
                     "jobs", "out", "help"});
    std::vector<void (*)(Plan &)> chosen;
    for (const auto &[name, declare] : figures) {
        if (args.has("list"))
            std::puts(name.c_str());
        if (args.has("all") || name == args.get("figure"))
            chosen.push_back(declare);
    }
    if (args.has("list"))
        return 0;
    if (args.has("all") == args.has("figure")) {
        std::puts("usage: figures --list\n"
                  "       figures (--figure NAME | --all) [--quick] [--csv]"
                  " [--workload NAME] [--jobs N] [--out FILE]");
        return args.has("help") ? 0 : 2;
    }
    if (chosen.empty())
        shm_fatal("unknown figure '{}' (run 'figures --list')",
                  args.get("figure"));
    const std::string out = args.get("out");

    Plan plan;
    plan.cycles = args.has("quick") ? 25000 : 100000;
    plan.only = args.get("workload");
    plan.csv = args.has("csv");
    for (auto declare : chosen)
        declare(plan);
    if (!out.empty() && (chosen.size() != 1 || plan.sunk.empty()))
        shm_fatal("--out needs one grid figure (fig10-fig16)");
    plan.run(args.number<unsigned>("jobs", 0));
    for (auto declare : chosen)
        declare(plan);
    if (!out.empty()) {
        std::ofstream os(out, std::ios::binary);
        if (!os)
            shm_fatal("cannot open '{}' for writing", out);
        std::vector<core::ExperimentResult> results;
        for (const CellResult *c : plan.sunk)
            results.push_back(c->result);
        core::writeSweepJson(os, results);
    }
    return plan.failed ? 1 : 0;
}
