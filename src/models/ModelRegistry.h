//===- ModelRegistry.h - String-addressable model construction --*- C++ -*-==//
///
/// \file
/// A registry resolving *model spec strings* into configured model
/// instances, so the CLI, benches, and corpus layers can name any
/// model × ablation scenario without new code.
///
/// Spec grammar (case-insensitive arch and axiom names):
///
///   spec  := base ( "/" mod )*
///   base  := arch | wrapper
///   arch  := "sc" | "tsc" | "x86" | "power"
///          | "armv8" | "arm" | "aarch64" | "cpp" | "c++"
///   wrapper := "power8"          -- POWER8 substitute (= power + NoLB)
///            | "armv8-silicon"   -- conservative ARMv8+TM part
///            | "armv8-rtl"       -- §6.2 buggy RTL (TxnOrder dropped)
///            | arch "-impl"      -- generic impl-conservative wrapper
///                                   (the arch model + NoLoadBuffering)
///   mod   := "+baseline"        -- disable every TM axiom
///          | "+all"             -- enable every axiom
///          | "+" axiom-name     -- enable one axiom
///          | "-" axiom-name     -- disable one axiom
///
/// Nothing else resolves: an empty modifier (`"x86/"`, `"x86//-tfence"`),
/// a modifier without its sign (`"x86/baseline"`, `"x86/Order"`), or a
/// base outside the two productions above is an unknown-spec error.
/// Registry specs are the one way to configure a model by name; code that
/// holds a concrete model type toggles axioms with `setAxiomEnabled`.
///
/// Modifiers apply left to right, starting from the base's default mask,
/// so `"power/-TxnOrder"` is Power with transaction ordering ablated,
/// `"cpp/+baseline"` is the non-transactional C++ baseline, and
/// `"power8/-NoLoadBuffering(impl)"` un-does the POWER8 conservatism.
/// Wrapper specs resolve to `hw/ImplModel` instances — the axiomatic
/// hardware substitutes — so benches and the query engine can address
/// implementation-conservative models from strings. `print()` renders a
/// configured model back into a spec whose `parse()` reproduces the arch
/// and mask (for a preset with axioms ablated by default, such as
/// `armv8-rtl`, the rendering spells the ablations out explicitly).
///
//===----------------------------------------------------------------------===//

#ifndef TMW_MODELS_MODELREGISTRY_H
#define TMW_MODELS_MODELREGISTRY_H

#include "models/MemoryModel.h"

#include <memory>
#include <optional>
#include <string>

namespace tmw {

/// Registry over the six architecture models (SC, TSC, x86, Power, ARMv8,
/// C++) plus the `ImplModel` hardware-substitute wrappers (see the
/// `wrapper` production above).
class ModelRegistry {
public:
  /// Every registered architecture, in spec-name order.
  static std::span<const Arch> allArchs();

  /// The named hardware-substitute presets ("power8", "armv8-silicon",
  /// "armv8-rtl"); the open-ended `<arch>-impl` family is not listed.
  static std::span<const char *const> wrapperSpecs();

  /// The canonical (lowercase) spec name of \p A, e.g. "armv8".
  static const char *archSpecName(Arch A);

  /// Resolve an architecture token (canonical name, `archName` rendering,
  /// or alias; case-insensitive).
  static std::optional<Arch> parseArch(std::string_view Token);

  /// The default (all axioms enabled) model for \p A.
  static std::unique_ptr<MemoryModel> make(Arch A);

  /// Parse a spec string into a configured model. On failure returns
  /// nullptr and, when \p Error is non-null, stores a message naming the
  /// offending token and the valid alternatives.
  static std::unique_ptr<MemoryModel> parse(std::string_view Spec,
                                            std::string *Error = nullptr);

  /// Split a comma-separated spec list ("sc,tsc,x86") into \p Out,
  /// appending in order. Strict: an empty segment — a leading, trailing,
  /// or doubled comma, or an empty value — is an error ("sc,,x86" is far
  /// more likely a typo'd third spec than an intentional no-op). On
  /// failure returns false and, when \p Error is non-null, stores a
  /// message; \p Out then holds the segments parsed so far. Segments are
  /// *not* resolved — callers validate each against `parse` so every bad
  /// spec in a list can be diagnosed, not just the first. This is the one
  /// list parser every frontend (`litmus_tool --model`,
  /// `tmw_audit --model`) shares.
  static bool splitSpecList(std::string_view List,
                            std::vector<std::string> &Out,
                            std::string *Error = nullptr);

  /// Canonical spec of \p M. For plain models: the arch name, then
  /// "/+baseline" when the mask is exactly the baseline, otherwise one
  /// "/-name" per disabled axiom. For `ImplModel` wrappers: the wrapper's
  /// spec token followed by one "/+name" or "/-name" per axiom whose state
  /// differs from that token's default. In both cases `parse(print(M))`
  /// reproduces M's arch, wrapper-ness, and mask.
  static std::string print(const MemoryModel &M);
};

} // namespace tmw

#endif // TMW_MODELS_MODELREGISTRY_H
