//===- ModelRegistry.cpp - String-addressable model construction -------------==//

#include "models/ModelRegistry.h"

#include "models/Armv8Model.h"
#include "models/CppModel.h"
#include "models/PowerModel.h"
#include "models/ScModel.h"
#include "models/X86Model.h"

// The hardware-substitute wrappers live one layer up (hw/); everything is
// one static library and the include is acyclic, so the registry can
// resolve their spec tokens directly rather than through a fragile
// static-initialisation hook.
#include "hw/ImplModel.h"

#include <cctype>

using namespace tmw;

namespace {

constexpr Arch kAllArchs[] = {Arch::SC,    Arch::TSC,   Arch::X86,
                              Arch::Power, Arch::Armv8, Arch::Cpp};

constexpr const char *kWrapperSpecs[] = {"power8", "armv8-silicon",
                                         "armv8-rtl"};

bool equalsIgnoreCase(std::string_view A, std::string_view B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I < A.size(); ++I)
    if (std::tolower(static_cast<unsigned char>(A[I])) !=
        std::tolower(static_cast<unsigned char>(B[I])))
      return false;
  return true;
}

/// Case-insensitive axiom lookup (spec strings are user input; the table
/// names keep the paper's capitalisation).
int findAxiomSpec(AxiomList Axioms, std::string_view Name) {
  for (unsigned I = 0; I < Axioms.size(); ++I)
    if (equalsIgnoreCase(Axioms[I].Name, Name))
      return static_cast<int>(I);
  return -1;
}

std::string axiomNamesOf(const MemoryModel &M) {
  std::string Names;
  for (const Axiom &Ax : M.axioms()) {
    if (!Names.empty())
      Names += ", ";
    Names += Ax.Name;
  }
  return Names;
}

/// Resolve a wrapper base token (named preset or "<arch>-impl"), or
/// nullptr when \p Token is not a wrapper spec.
std::unique_ptr<MemoryModel> makeWrapper(std::string_view Token) {
  if (equalsIgnoreCase(Token, "power8"))
    return std::make_unique<ImplModel>(ImplModel::power8());
  if (equalsIgnoreCase(Token, "armv8-silicon"))
    return std::make_unique<ImplModel>(ImplModel::armv8Silicon());
  if (equalsIgnoreCase(Token, "armv8-rtl"))
    return std::make_unique<ImplModel>(ImplModel::armv8BuggyRtl());
  constexpr std::string_view Suffix = "-impl";
  if (Token.size() > Suffix.size() &&
      equalsIgnoreCase(Token.substr(Token.size() - Suffix.size()), Suffix))
    if (std::optional<Arch> A = ModelRegistry::parseArch(
            Token.substr(0, Token.size() - Suffix.size())))
      return std::make_unique<ImplModel>(ImplModel::implFor(*A));
  return nullptr;
}

} // namespace

std::span<const Arch> ModelRegistry::allArchs() { return kAllArchs; }

std::span<const char *const> ModelRegistry::wrapperSpecs() {
  return kWrapperSpecs;
}

const char *ModelRegistry::archSpecName(Arch A) {
  switch (A) {
  case Arch::SC:
    return "sc";
  case Arch::TSC:
    return "tsc";
  case Arch::X86:
    return "x86";
  case Arch::Power:
    return "power";
  case Arch::Armv8:
    return "armv8";
  case Arch::Cpp:
    return "cpp";
  }
  return "?";
}

std::optional<Arch> ModelRegistry::parseArch(std::string_view Token) {
  for (Arch A : kAllArchs)
    if (equalsIgnoreCase(Token, archSpecName(A)) ||
        equalsIgnoreCase(Token, archName(A)))
      return A;
  if (equalsIgnoreCase(Token, "arm") || equalsIgnoreCase(Token, "aarch64"))
    return Arch::Armv8;
  if (equalsIgnoreCase(Token, "c++"))
    return Arch::Cpp;
  return std::nullopt;
}

std::unique_ptr<MemoryModel> ModelRegistry::make(Arch A) {
  switch (A) {
  case Arch::SC:
    return std::make_unique<ScModel>();
  case Arch::TSC:
    return std::make_unique<TscModel>();
  case Arch::X86:
    return std::make_unique<X86Model>();
  case Arch::Power:
    return std::make_unique<PowerModel>();
  case Arch::Armv8:
    return std::make_unique<Armv8Model>();
  case Arch::Cpp:
    return std::make_unique<CppModel>();
  }
  return nullptr;
}

std::unique_ptr<MemoryModel> ModelRegistry::parse(std::string_view Spec,
                                                  std::string *Error) {
  auto Fail = [&](std::string Message) -> std::unique_ptr<MemoryModel> {
    if (Error)
      *Error = std::move(Message);
    return nullptr;
  };

  std::string_view BaseToken = Spec.substr(0, Spec.find('/'));
  std::unique_ptr<MemoryModel> M;
  if (std::optional<Arch> A = parseArch(BaseToken))
    M = make(*A);
  else
    M = makeWrapper(BaseToken);
  if (!M) {
    std::string Bases;
    for (Arch Known : kAllArchs) {
      if (!Bases.empty())
        Bases += ", ";
      Bases += archSpecName(Known);
    }
    for (const char *W : kWrapperSpecs) {
      Bases += ", ";
      Bases += W;
    }
    return Fail("unknown model '" + std::string(BaseToken) +
                "' (expected one of: " + Bases + ", or <arch>-impl)");
  }

  // Every "/" opens one modifier, so a trailing or doubled slash names an
  // empty one and is an error, like an empty segment of a spec list.
  for (size_t Slash = BaseToken.size(); Slash != Spec.size();) {
    std::string_view Rest = Spec.substr(Slash + 1);
    std::string_view Mod = Rest.substr(0, Rest.find('/'));
    Slash += Mod.size() + 1;
    if (Mod.empty())
      return Fail("empty modifier in '" + std::string(Spec) + "'");
    if (equalsIgnoreCase(Mod, "+baseline")) {
      M->setAxiomMask(baselineMask(M->axioms()));
      continue;
    }
    if (equalsIgnoreCase(Mod, "+all")) {
      M->setAxiomMask(AxiomMask::all());
      continue;
    }
    if (Mod.front() != '+' && Mod.front() != '-')
      return Fail("bad modifier '" + std::string(Mod) +
                  "' (expected +baseline, +all, +name, or -name)");
    bool Enable = Mod.front() == '+';
    std::string_view Name = Mod.substr(1);
    int I = findAxiomSpec(M->axioms(), Name);
    if (I < 0)
      return Fail("unknown axiom '" + std::string(Name) + "' for " +
                  std::string(BaseToken) +
                  " (axioms: " + axiomNamesOf(*M) + ")");
    AxiomMask Mask = M->axiomMask();
    Mask.set(static_cast<unsigned>(I), Enable);
    M->setAxiomMask(Mask);
  }
  if (Error)
    Error->clear();
  return M;
}

std::string ModelRegistry::print(const MemoryModel &M) {
  if (const auto *Impl = dynamic_cast<const ImplModel *>(&M)) {
    // Wrapper rendering: the wrapper's own spec token, then the state of
    // every axiom that differs from that token's default configuration
    // (so "armv8-rtl" stays "armv8-rtl", not a pile of ablations).
    std::string Spec = Impl->specToken();
    std::unique_ptr<MemoryModel> Default = parse(Spec);
    AxiomList Axioms = M.axioms();
    unsigned N = static_cast<unsigned>(Axioms.size());
    AxiomMask Mask = M.axiomMask().normalized(N);
    AxiomMask Base = Default->axiomMask().normalized(N);
    for (unsigned I = 0; I < N; ++I)
      if (Mask.test(I) != Base.test(I)) {
        Spec += Mask.test(I) ? "/+" : "/-";
        Spec += Axioms[I].Name;
      }
    return Spec;
  }

  std::string Spec = archSpecName(M.arch());
  AxiomList Axioms = M.axioms();
  unsigned N = static_cast<unsigned>(Axioms.size());
  AxiomMask Mask = M.axiomMask().normalized(N);
  if (Mask == AxiomMask::all().normalized(N))
    return Spec;
  if (Mask == baselineMask(Axioms).normalized(N))
    return Spec + "/+baseline";
  for (unsigned I = 0; I < N; ++I)
    if (!Mask.test(I)) {
      Spec += "/-";
      Spec += Axioms[I].Name;
    }
  return Spec;
}

bool ModelRegistry::splitSpecList(std::string_view List,
                                  std::vector<std::string> &Out,
                                  std::string *Error) {
  size_t Seg = 0;
  for (size_t P = 0;; ++P) {
    if (P != List.size() && List[P] != ',')
      continue;
    if (P == Seg) {
      if (Error)
        *Error = "empty spec in list";
      return false;
    }
    Out.emplace_back(List.substr(Seg, P - Seg));
    if (P == List.size())
      return true;
    Seg = P + 1;
  }
}
