//===- Lint.cpp - Static analysis of litmus programs ----------------------------==//

#include "lint/Lint.h"

#include "execution/Execution.h"
#include "models/Axiom.h"

#include <string>

using namespace tmw;

const char *tmw::lintSeverityName(LintSeverity S) {
  return S == LintSeverity::Error ? "error" : "warning";
}

namespace {

using IKind = Instruction::Kind;

/// Does this instruction produce a runtime event? Transaction delimiters
/// only label the events between them.
bool producesEvent(IKind K) {
  return K != IKind::TxBegin && K != IKind::TxEnd;
}

const std::string &locName(const Program &P, LocId L,
                           const std::string &Fallback) {
  if (L >= 0 && static_cast<size_t>(L) < P.LocNames.size())
    return P.LocNames[L];
  return Fallback;
}

class Linter {
public:
  explicit Linter(const Program &P) : P(P) {}

  LintReport run() {
    lintCaps();
    lintLocations();
    for (unsigned T = 0; T < P.Threads.size(); ++T)
      lintThread(T);
    lintPostconditions();
    return std::move(R);
  }

private:
  const Program &P;
  LintReport R;

  unsigned lineOf(int T, int I) const {
    if (T >= 0 && static_cast<size_t>(T) < P.SrcLines.size() && I >= 0 &&
        static_cast<size_t>(I) < P.SrcLines[T].size())
      return P.SrcLines[T][I];
    return 0;
  }

  /// A finding on instruction \p I of thread \p T sits on that
  /// instruction's line; one that names no instruction, on \p Line.
  void add(LintSeverity Sev, std::string_view Code, std::string Msg,
           int T = -1, int I = -1, unsigned Line = 0) {
    R.Findings.push_back(
        {Sev, Code, std::move(Msg), T, I, I >= 0 ? lineOf(T, I) : Line});
  }

  /// Line \p K of \p Lines (a `post` line table), 0 past its end.
  static unsigned postLine(const std::vector<unsigned> &Lines, size_t K) {
    return K < Lines.size() ? Lines[K] : 0;
  }

  /// Hard enumerator caps, counted once by `computeFacts`.
  void lintCaps() {
    for (LintFinding &F : capFindings(computeFacts(P)))
      R.Findings.push_back(std::move(F));
  }

  void lintLocations() {
    const std::string Unnamed = "<unnamed>";
    for (LocId L = 0; static_cast<size_t>(L) < P.LocNames.size(); ++L) {
      bool Loaded = false, Stored = false;
      for (const auto &Th : P.Threads)
        for (const Instruction &I : Th) {
          if (I.Loc != L)
            continue;
          if (I.K == IKind::Load)
            Loaded = true;
          else if (I.K == IKind::Store)
            Stored = true;
        }
      bool Asserted = false;
      for (const MemAssertion &M : P.MemPost)
        Asserted |= M.Loc == L;
      bool HasInit = false;
      for (const auto &[Loc, V] : P.InitialValues)
        HasInit |= Loc == L;
      const std::string &Name = locName(P, L, Unnamed);
      if (!Loaded && !Stored && !Asserted)
        add(LintSeverity::Warning, "unused-location",
            "location '" + Name +
                "' is never accessed and never asserted");
      else if (Loaded && !Stored && !HasInit)
        // Note: `loc x 0` is normalized away at parse time, so "no
        // nonzero initial" is the strongest claim available here.
        add(LintSeverity::Warning, "uninitialized-location",
            "location '" + Name +
                "' is loaded but never stored and has no nonzero initial "
                "value (every load reads 0)");
    }
  }

  void lintThread(unsigned T) {
    const std::vector<Instruction> &Th = P.Threads[T];
    int OpenTxn = -1, OpenLock = -1;
    // The transaction open when the open lock region began (-1: none).
    int LockTxn = -1;
    bool OpenLockElided = false;
    for (unsigned I = 0; I < Th.size(); ++I) {
      const Instruction &Ins = Th[I];
      switch (Ins.K) {
      case IKind::TxBegin:
        if (OpenTxn >= 0)
          add(LintSeverity::Error, "unbalanced-txn",
              "nested txbegin: the transaction opened at instruction " +
                  std::to_string(OpenTxn) + " is still open",
              static_cast<int>(T), static_cast<int>(I));
        OpenTxn = static_cast<int>(I);
        break;
      case IKind::TxEnd:
        if (OpenTxn < 0)
          add(LintSeverity::Error, "unbalanced-txn",
              "txend without a matching txbegin", static_cast<int>(T),
              static_cast<int>(I));
        // A region opened inside the transaction loses its lock call
        // when the transaction aborts (§3.1) but keeps its unlock.
        if (OpenLock >= 0 && OpenTxn >= 0 && LockTxn == OpenTxn)
          add(LintSeverity::Error, "unbalanced-lock",
              "txend cuts the lock region opened at instruction " +
                  std::to_string(OpenLock) +
                  ", so an abort drops its lock call but keeps its unlock",
              static_cast<int>(T), static_cast<int>(I));
        OpenTxn = -1;
        LockTxn = -1; // a cut region is reported once, here
        break;
      case IKind::Lock:
      case IKind::TxLock:
        if (OpenLock >= 0)
          add(LintSeverity::Error, "unbalanced-lock",
              "nested lock call: the region opened at instruction " +
                  std::to_string(OpenLock) + " is still open",
              static_cast<int>(T), static_cast<int>(I));
        OpenLock = static_cast<int>(I);
        LockTxn = OpenTxn;
        OpenLockElided = Ins.K == IKind::TxLock;
        break;
      case IKind::Unlock:
      case IKind::TxUnlock: {
        bool Elided = Ins.K == IKind::TxUnlock;
        if (OpenLock < 0)
          add(LintSeverity::Error, "unbalanced-lock",
              std::string(Elided ? "txunlock" : "unlock") +
                  " without a matching lock call",
              static_cast<int>(T), static_cast<int>(I));
        else if (Elided != OpenLockElided)
          add(LintSeverity::Error, "unbalanced-lock",
              std::string("region opened by ") +
                  (OpenLockElided ? "txlock" : "lock") + " is closed by " +
                  (Elided ? "txunlock" : "unlock"),
              static_cast<int>(T), static_cast<int>(I));
        else if (OpenTxn != LockTxn)
          // The unlock sits in a transaction the lock call is outside
          // of: an abort drops the unlock and leaves the region open.
          add(LintSeverity::Error, "unbalanced-lock",
              std::string(Elided ? "txunlock" : "unlock") +
                  " inside a transaction closes the lock region opened "
                  "at instruction " +
                  std::to_string(OpenLock) +
                  " outside it, so an abort leaves the region open",
              static_cast<int>(T), static_cast<int>(I));
        OpenLock = -1;
        break;
      }
      default:
        break;
      }
      lintRmwPair(T, I);
      lintDeps(T, I);
    }
    if (OpenTxn >= 0)
      add(LintSeverity::Error, "unbalanced-txn",
          "txbegin without a matching txend", static_cast<int>(T), OpenTxn);
    if (OpenLock >= 0)
      add(LintSeverity::Error, "unbalanced-lock",
          std::string(OpenLockElided ? "txlock" : "lock") +
              " without a matching unlock call",
          static_cast<int>(T), OpenLock);
  }

  void lintRmwPair(unsigned T, unsigned I) {
    const std::vector<Instruction> &Th = P.Threads[T];
    const Instruction &Ins = Th[I];
    if (Ins.RmwPartner < 0)
      return;
    auto Err = [&](std::string Msg) {
      add(LintSeverity::Error, "bad-rmw-pair", std::move(Msg),
          static_cast<int>(T), static_cast<int>(I));
    };
    if (Ins.K != IKind::Load && Ins.K != IKind::Store) {
      Err("rmw partner on an instruction that is neither a load nor a "
          "store");
      return;
    }
    unsigned Pn = static_cast<unsigned>(Ins.RmwPartner);
    if (Pn >= Th.size()) {
      Err("rmw partner r" + std::to_string(Pn) +
          " is out of range for this thread");
      return;
    }
    const Instruction &Partner = Th[Pn];
    IKind Want = Ins.K == IKind::Load ? IKind::Store : IKind::Load;
    if (Partner.K != Want) {
      Err("rmw partner r" + std::to_string(Pn) + " is not a " +
          (Want == IKind::Store ? "store" : "load"));
      return;
    }
    if (Partner.RmwPartner != static_cast<int>(I))
      Err("rmw partner r" + std::to_string(Pn) +
          " does not point back at this instruction");
    else if (Partner.Loc != Ins.Loc)
      Err("rmw pair accesses two different locations");
  }

  void lintDeps(unsigned T, unsigned I) {
    const std::vector<Instruction> &Th = P.Threads[T];
    const Instruction &Ins = Th[I];
    auto Check = [&](const std::vector<unsigned> &Deps, const char *What) {
      for (unsigned D : Deps) {
        if (D >= I)
          add(LintSeverity::Error, "bad-dependency",
              std::string(What) + " dependency on r" + std::to_string(D) +
                  ", which is not an earlier instruction of this thread",
              static_cast<int>(T), static_cast<int>(I));
        else if (Th[D].K != IKind::Load)
          add(LintSeverity::Error, "bad-dependency",
              std::string(What) + " dependency on r" + std::to_string(D) +
                  ", which is not a load (only loads define registers)",
              static_cast<int>(T), static_cast<int>(I));
      }
    };
    Check(Ins.AddrDeps, "address");
    Check(Ins.DataDeps, "data");
    Check(Ins.CtrlDeps, "control");
  }

  /// A finding on a register that exists sits on its instruction's line;
  /// any other, on the line of its `post`.
  void lintPostconditions() {
    for (size_t K = 0; K < P.RegPost.size(); ++K) {
      const RegAssertion &A = P.RegPost[K];
      unsigned Line = postLine(P.RegPostLines, K);
      if (A.Thread >= P.Threads.size()) {
        add(LintSeverity::Error, "bad-postcondition",
            "post reg names nonexistent thread " + std::to_string(A.Thread),
            -1, -1, Line);
        continue;
      }
      const std::vector<Instruction> &Th = P.Threads[A.Thread];
      if (A.LoadIndex >= Th.size() ||
          Th[A.LoadIndex].K != IKind::Load)
        add(LintSeverity::Error, "bad-postcondition",
            "post reg r" + std::to_string(A.LoadIndex) + " of thread " +
                std::to_string(A.Thread) +
                " does not name a load (only loads define registers)",
            static_cast<int>(A.Thread),
            A.LoadIndex < Th.size() ? static_cast<int>(A.LoadIndex) : -1,
            Line);
    }
    for (size_t K = 0; K < P.MemPost.size(); ++K) {
      LocId L = P.MemPost[K].Loc;
      if (L < 0 || static_cast<size_t>(L) >= P.LocNames.size())
        add(LintSeverity::Error, "bad-postcondition",
            "post mem names nonexistent location id " + std::to_string(L),
            -1, -1, postLine(P.MemPostLines, K));
    }
  }
};

} // namespace

LintReport tmw::lintProgram(const Program &P) { return Linter(P).run(); }

ProgramFacts tmw::computeFacts(const Program &P) {
  ProgramFacts F;
  bool AnyAtomic = false;
  LocId FirstLoc = -1;
  for (const auto &Th : P.Threads)
    for (const Instruction &I : Th) {
      if (producesEvent(I.K))
        ++F.Events;
      switch (I.K) {
      case IKind::TxBegin:
        F.TxnFree = false;
        AnyAtomic |= I.TxnAtomic;
        ++F.Txns;
        break;
      case IKind::Lock:
      case IKind::Unlock:
      case IKind::TxLock:
      case IKind::TxUnlock:
        F.LockRegionFree = false;
        break;
      case IKind::Fence:
        if (I.FK != FenceKind::None)
          F.FenceKinds |= 1u << static_cast<unsigned>(I.FK);
        AnyAtomic |= I.MO != MemOrder::NonAtomic;
        break;
      case IKind::Load:
      case IKind::Store:
        if (I.MO == MemOrder::NonAtomic)
          F.AtomicOnly = false;
        else
          AnyAtomic = true;
        if (FirstLoc < 0)
          FirstLoc = I.Loc;
        else if (I.Loc != FirstLoc)
          F.SingleLocation = false;
        break;
      default:
        break;
      }
      if (I.RmwPartner >= 0)
        F.RmwFree = false;
    }

  uint32_t V = vocab::Base;
  if (!F.TxnFree)
    V |= vocab::Txn;
  if (!F.RmwFree)
    V |= vocab::Rmw;
  if (!F.LockRegionFree)
    V |= vocab::Lock;
  if (AnyAtomic)
    V |= vocab::Atomic;
  for (unsigned K = 1; K <= static_cast<unsigned>(FenceKind::CppFence); ++K)
    if (F.FenceKinds & (1u << K))
      V |= vocab::fence(static_cast<FenceKind>(K));
  F.Vocabulary = V;
  return F;
}

std::vector<LintFinding> tmw::capFindings(const ProgramFacts &F) {
  std::vector<LintFinding> Out;
  if (F.Events > kMaxEvents)
    Out.push_back({LintSeverity::Error, "too-many-events",
                   "program produces " + std::to_string(F.Events) +
                       " events; executions are capped at " +
                       std::to_string(kMaxEvents) +
                       " (kMaxEvents), so it cannot be checked"});
  if (F.Txns > kMaxTxns)
    Out.push_back({LintSeverity::Error, "too-many-txns",
                   "program opens " + std::to_string(F.Txns) +
                       " transactions; executions are capped at " +
                       std::to_string(kMaxTxns) +
                       " transaction classes (kMaxTxns), so it cannot be "
                       "checked"});
  return Out;
}

uint32_t tmw::executionVocabulary(const Execution &X) {
  uint32_t V = vocab::Base;
  for (unsigned E = 0; E < X.size(); ++E) {
    const Event &Ev = X.event(E);
    if (Ev.isAtomic())
      V |= vocab::Atomic;
    if (Ev.isLockCall())
      V |= vocab::Lock;
    if (Ev.isFence() && Ev.Fence != FenceKind::None)
      V |= vocab::fence(Ev.Fence);
    if (X.Txn[E] != kNoClass)
      V |= vocab::Txn;
    if (X.Cr[E] != kNoClass)
      V |= vocab::Lock;
  }
  if (!X.Rmw.isEmpty())
    V |= vocab::Rmw;
  if (X.AtomicTxns != 0)
    V |= vocab::Atomic;
  return V;
}
