/**
 * @file
 * Named end-to-end plans: the fixed stage graphs behind `wct run`. One
 * table declares every plan — its suites, whether it renders their
 * profile and similarity tables, whether it runs the four Section VI
 * transfers, whether it renders the paper's remaining tables and
 * figures — and one expansion turns an entry into the stages it runs
 * with their chained keys. runPlan() executes that expansion;
 * planArtifacts() lists it without executing anything. A plan is the
 * unit the artifact store reasons about: `wct cache gc` keeps exactly
 * the artifacts some standard plan would touch.
 *
 * `paper` runs exactly `full`'s stages and prints `full`'s bytes, then
 * Table I, Figures 1-2, the Table II-IV observations, Table III's
 * subset and the Section VI summaries, rendered from the models,
 * profile tables and transfer reports the run already holds. The
 * paper's own reference values sit in one data table in plans.cc.
 *
 * The standard protocol (collection scale, tree hyper-parameters)
 * lives here so the CLI, the bench/ ablations, and the perf
 * benchmarks all reproduce the paper from identical stage keys: the
 * paper samples 2 M-instruction intervals over full reference runs;
 * the reproduction scales the interval to 8192 instructions and the
 * per-suite sample counts to O(10^4) so a full run finishes in
 * seconds (densities are normalised per instruction, so models are
 * scale-insensitive; see DESIGN.md).
 */

#ifndef WCT_PIPELINE_PLANS_HH
#define WCT_PIPELINE_PLANS_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "pipeline/stages.hh"

namespace wct::pipeline
{

/** Standard collection protocol (see the file comment on scaling). */
CollectionConfig standardCollection();

/** Standard suite-model protocol (train on a random 10%). */
SuiteModelConfig standardModelConfig();

/**
 * The configs a plan runs with. Defaults reproduce the paper; tests
 * and `wct run --intervals/...` shrink the collection scale, which
 * changes every chained key (a scaled run never aliases a standard
 * artifact).
 */
struct PlanProtocol
{
    CollectionConfig collection = standardCollection();
    SuiteModelConfig model = standardModelConfig();
};

/** Names accepted by runPlan, in presentation order. */
std::vector<std::string> planNames();

/** True when `name` is a known plan. */
bool isPlanName(const std::string &name);

/**
 * Execute a plan's stages through `pipe`, writing the rendered
 * results (tree summary, tables, reports) to `out`. Fatal on an
 * unknown plan name — check isPlanName for user input first.
 */
void runPlan(Pipeline &pipe, const std::string &name,
             const PlanProtocol &protocol, std::ostream &out);

/**
 * Every artifact id a plan run would read or write, in run order: the
 * plan's expansion, each suite's collection shards, and the ("mtree",
 * content key) entries for models whose train artifacts are already
 * in `store` (content keys are only knowable from the trained trees).
 * Fatal on an unknown plan name.
 */
std::vector<ArtifactId> planArtifacts(const std::string &name,
                                      const PlanProtocol &protocol,
                                      const ArtifactStore &store);

} // namespace wct::pipeline

#endif // WCT_PIPELINE_PLANS_HH
