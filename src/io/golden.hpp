// The identify_snos walkthrough text, shared by examples/identify_snos
// and the golden-run regression suite.
//
// A pure function of (seed, config): no wall-clock, no thread-count
// dependence, no machine dependence. tests/golden_test.cpp pins it
// byte-for-byte against tests/golden/identify_snos.txt at 1/2/8 worker
// threads. If you change simulation behaviour on purpose, regenerate
// the snapshots (see the test file or README). The paper's tables and
// figures live in io/paper.hpp.
#pragma once

#include <string>

namespace satnet::io {

/// The identify_snos walkthrough: every stage of the paper's Figure-1
/// pipeline with what it keeps and drops. `threads` feeds the sharded
/// campaign/pipeline runtimes; the text is identical for every value.
std::string identify_snos_report(unsigned threads);

}  // namespace satnet::io
