// The paper report: every table and figure of the paper that the
// reproduction regenerates, plus its ablations and extensions, as one
// ordered table of sections (`satnetctl paper`, pinned whole by
// tests/golden/paper.txt).
//
// Each section renders to a string from `Inputs`, which builds the
// shared datasets (world, M-Lab campaign, pipeline, Atlas year) on first
// use, once per `Inputs`. Rendering is a pure function of the seeds and
// configs: the text is identical for every thread count, and a section
// rendered alone equals its slice of the full report.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "mlab/campaign.hpp"
#include "ripe/atlas.hpp"
#include "snoid/pipeline.hpp"
#include "synth/world.hpp"

namespace satnet::io::paper {

/// The datasets the sections share. Each is built lazily with `threads`
/// workers (0 = one per hardware thread; the data is identical for every
/// value) and runtime::degrade_under_faults().
class Inputs {
 public:
  explicit Inputs(unsigned threads) : threads_(threads) {}

  /// The default world.
  const synth::World& world();
  /// M-Lab campaign at 0.2% of the paper's volume (volume_scale 0.002),
  /// with at least 30 tests per SNO so the long tail stays analyzable.
  const mlab::NdtDataset& mlab();
  /// The identification pipeline over mlab().
  const snoid::PipelineResult& pipeline();
  /// One RIPE Atlas year: 366 days at an 8-hour cadence.
  const ripe::AtlasDataset& atlas();

 private:
  unsigned threads_;
  std::optional<synth::World> world_;
  std::optional<mlab::NdtDataset> mlab_;
  std::optional<snoid::PipelineResult> pipeline_;
  std::optional<ripe::AtlasDataset> atlas_;
};

/// One table, figure, ablation or extension.
struct Section {
  std::string_view id;  ///< "table1", "fig4", "ablation-pop", ...
  std::string (*render)(Inputs&);
};

/// Every section, in report order: table1..3, fig2..fig11, fig13, fig14,
/// the ablations, the extensions.
const std::vector<Section>& sections();

/// The section ids in report order (the `--figure` choices).
std::vector<std::string> section_ids();

/// Every section rendered in order over one `Inputs`.
std::string render_all(Inputs& inputs);

}  // namespace satnet::io::paper
