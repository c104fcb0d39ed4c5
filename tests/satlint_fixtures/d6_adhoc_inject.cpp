// Fixture: ad-hoc fault toggles. Linted under a virtual src/transport/
// path so the adhoc-inject rule applies; the same content under
// src/fault/ or examples/ must stay silent.
#include <cstddef>
#include <string>

namespace fixture {

struct Config {
  bool inject_loss = false;  // hit: fault toggle living outside fault::
  double loss = 0.0;
};

double sample(const Config& cfg, double base) {
  if (cfg.inject_loss) {  // hit: ad-hoc branch instead of fault::Hook
    return base + cfg.loss;
  }
  // Clean: talking about "injection" in a comment is fine.
  const std::string label = "inject_me_not";  // clean: string literal
  (void)label;
  return base;
}

// Clean: the fault module's own exception type is CamelCase, not a flag.
class InjectedShardFailure {};

// satlint:allow(adhoc-inject): migration shim removed once callers move to fault::Hook
bool inject_legacy_toggle() { return false; }  // suppressed by the allow

}  // namespace fixture
