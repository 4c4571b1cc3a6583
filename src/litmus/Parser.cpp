//===- Parser.cpp - Parsing the litmus DSL --------------------------------------==//

#include "litmus/Parser.h"

#include "relation/EventSet.h"

#include <charconv>
#include <vector>

using namespace tmw;

namespace {

/// The characters `operator>>` skips in the C locale.
bool isSeparator(char C) {
  return C == ' ' || C == '\t' || C == '\n' || C == '\v' || C == '\f' ||
         C == '\r';
}

/// Split \p Line into \p Toks: views of \p Line between runs of
/// separators. A token that starts with `#` ends the line.
void tokenize(std::string_view Line, std::vector<std::string_view> &Toks) {
  Toks.clear();
  size_t I = 0;
  while (true) {
    while (I < Line.size() && isSeparator(Line[I]))
      ++I;
    if (I == Line.size() || Line[I] == '#')
      return;
    size_t Start = I;
    while (I < Line.size() && !isSeparator(Line[I]))
      ++I;
    Toks.push_back(Line.substr(Start, I - Start));
  }
}

/// Parse a decimal `int` from the whole of \p S: one optional sign, then
/// digits. A value outside `int` is an error, not a wrapped value
/// (`thread 4294967296` must not read as thread 0), and so is anything
/// after the digits, a NUL byte included (`1\0junk` is not 1).
bool parseInt(std::string_view S, int &Out) {
  // `from_chars` takes no `+`; `+-1` stays an error.
  if (S.size() > 1 && S[0] == '+' && S[1] != '-')
    S.remove_prefix(1);
  int V;
  auto [End, Ec] = std::from_chars(S.data(), S.data() + S.size(), V);
  if (Ec != std::errc() || End != S.data() + S.size())
    return false;
  Out = V;
  return true;
}

MemOrder parseOrder(std::string_view S, bool &Ok) {
  Ok = true;
  if (S == "na")
    return MemOrder::NonAtomic;
  if (S == "rlx")
    return MemOrder::Relaxed;
  if (S == "acq")
    return MemOrder::Acquire;
  if (S == "rel")
    return MemOrder::Release;
  if (S == "acqrel")
    return MemOrder::AcqRel;
  if (S == "sc")
    return MemOrder::SeqCst;
  Ok = false;
  return MemOrder::NonAtomic;
}

FenceKind parseFence(std::string_view S, bool &Ok) {
  Ok = true;
  if (S == "mfence")
    return FenceKind::MFence;
  if (S == "sync")
    return FenceKind::Sync;
  if (S == "lwsync")
    return FenceKind::LwSync;
  if (S == "isync")
    return FenceKind::ISync;
  if (S == "dmb")
    return FenceKind::Dmb;
  if (S == "dmb.ld")
    return FenceKind::DmbLd;
  if (S == "dmb.st")
    return FenceKind::DmbSt;
  if (S == "isb")
    return FenceKind::Isb;
  if (S == "fence")
    return FenceKind::CppFence;
  Ok = false;
  return FenceKind::None;
}

/// Parse trailing attributes (excl, addr:rN, data:rN, ctrl:rN, rmw:N).
bool parseAttrs(const std::vector<std::string_view> &Toks, size_t From,
                Instruction &I, std::string &Err) {
  for (size_t T = From; T < Toks.size(); ++T) {
    std::string_view A = Toks[T];
    if (A == "excl") {
      I.Exclusive = true;
      continue;
    }
    auto ParseRef = [&](std::string_view Prefix,
                        std::vector<unsigned> *Deps) -> bool {
      if (!A.starts_with(Prefix))
        return false;
      int V;
      std::string_view Rest = A.substr(Prefix.size());
      if (!Rest.empty() && Rest[0] == 'r')
        Rest.remove_prefix(1);
      if (!parseInt(Rest, V) || V < 0) {
        Err = "bad dependency reference: " + std::string(A);
        return true;
      }
      if (Deps)
        Deps->push_back(static_cast<unsigned>(V));
      else
        I.RmwPartner = V;
      return true;
    };
    if (ParseRef("addr:", &I.AddrDeps) || ParseRef("data:", &I.DataDeps) ||
        ParseRef("ctrl:", &I.CtrlDeps) || ParseRef("rmw:", nullptr)) {
      if (!Err.empty())
        return false;
      continue;
    }
    Err = "unknown attribute: " + std::string(A);
    return false;
  }
  return true;
}

} // namespace

std::string ParseResult::diagnostic(std::string_view File) const {
  if (Error.empty())
    return {};
  std::string Out;
  if (!File.empty())
    Out.append(File).append(":");
  else
    Out += "line ";
  Out += std::to_string(ErrorLine);
  Out += ": ";
  Out += Error;
  return Out;
}

ParseResult tmw::parseProgram(std::string_view Text) {
  ParseResult Res;
  Program &P = Res.Prog;
  int CurThread = -1;
  unsigned LineNo = 0;
  // Line of each location's `loc` declaration (0: not declared), by LocId.
  std::vector<unsigned> LocLines;

  // One token vector for the whole parse: each line's tokens are views
  // of \p Text, so a line costs no allocation of its own.
  std::vector<std::string_view> Toks;
  Toks.reserve(8);
  // Every caller returns the result at once, so it is moved out, not
  // copied with the partial program.
  auto Fail = [&](std::string Msg) {
    Res.Error = std::move(Msg);
    Res.ErrorLine = LineNo;
    return std::move(Res);
  };

  // Walk the lines of the view directly (no stream, no input copy): the
  // long-lived server parses sources straight out of wire buffers. Only
  // what the program keeps (names) and diagnostics become strings.
  for (size_t Cursor = 0; Cursor < Text.size();) {
    size_t Nl = Text.find('\n', Cursor);
    if (Nl == std::string_view::npos)
      Nl = Text.size();
    std::string_view Line = Text.substr(Cursor, Nl - Cursor);
    Cursor = Nl + 1;
    ++LineNo;
    tokenize(Line, Toks);
    if (Toks.empty())
      continue;
    std::string_view Cmd = Toks[0];

    if (Cmd == "name") {
      if (Toks.size() < 2)
        return Fail("name requires an argument");
      P.Name = Toks[1];
      continue;
    }
    if (Cmd == "loc") {
      if (Toks.size() < 3)
        return Fail("loc requires a name and an initial value");
      int V;
      if (!parseInt(Toks[2], V))
        return Fail("bad initial value");
      LocId L = P.ensureLoc(Toks[1]);
      LocLines.resize(P.LocNames.size());
      if (LocLines[L])
        return Fail("location '" + std::string(Toks[1]) +
                    "' already declared at line " +
                    std::to_string(LocLines[L]));
      LocLines[L] = LineNo;
      if (V != 0)
        P.InitialValues.push_back({L, V});
      continue;
    }
    if (Cmd == "thread") {
      int T;
      if (Toks.size() < 2 || !parseInt(Toks[1], T) || T < 0)
        return Fail("bad thread index");
      // Threads are indexed densely, so the index sizes the program: an
      // execution has at most kMaxEvents events, hence at most that many
      // non-empty threads.
      if (static_cast<unsigned>(T) >= kMaxEvents)
        return Fail("thread index " + std::string(Toks[1]) +
                    " out of range (0.." +
                    std::to_string(kMaxEvents - 1) + ")");
      while (static_cast<int>(P.Threads.size()) <= T)
        P.Threads.emplace_back();
      while (P.SrcLines.size() < P.Threads.size())
        P.SrcLines.emplace_back();
      CurThread = T;
      continue;
    }
    if (Cmd == "post") {
      if (Toks.size() < 2)
        return Fail("incomplete postcondition");
      if (Toks[1] == "reg") {
        int T, V;
        if (Toks.size() < 5 || !parseInt(Toks[2], T))
          return Fail("post reg requires: thread, register, value");
        std::string_view Reg = Toks[3];
        if (!Reg.empty() && Reg[0] == 'r')
          Reg.remove_prefix(1);
        int RI;
        if (!parseInt(Reg, RI) || !parseInt(Toks[4], V))
          return Fail("bad post reg operands");
        // Thread and register are indices: a negative one must not wrap
        // to a huge unsigned one.
        if (T < 0)
          return Fail("post reg thread " + std::string(Toks[2]) +
                      " is negative");
        if (RI < 0)
          return Fail("post reg register " + std::string(Toks[3]) +
                      " is negative");
        P.RegPost.push_back({static_cast<unsigned>(T),
                             static_cast<unsigned>(RI), V});
        P.RegPostLines.push_back(LineNo);
        continue;
      }
      if (Toks[1] == "mem") {
        int V;
        if (Toks.size() < 4 || !parseInt(Toks[3], V))
          return Fail("post mem requires: location, value");
        P.MemPost.push_back({P.ensureLoc(Toks[2]), V});
        P.MemPostLines.push_back(LineNo);
        continue;
      }
      return Fail("unknown postcondition kind: " + std::string(Toks[1]));
    }

    // Everything else is an instruction inside the current thread.
    if (CurThread < 0)
      return Fail("instruction outside any thread");
    Instruction I;
    size_t AttrsFrom = 1;
    std::string AttrErr;

    if (Cmd == "load") {
      if (Toks.size() < 2)
        return Fail("load requires a location");
      I.K = Instruction::Kind::Load;
      I.Loc = P.ensureLoc(Toks[1]);
      AttrsFrom = 2;
      if (Toks.size() > 2) {
        bool Ok;
        MemOrder MO = parseOrder(Toks[2], Ok);
        if (Ok) {
          I.MO = MO;
          AttrsFrom = 3;
        }
      }
    } else if (Cmd == "store") {
      int V;
      if (Toks.size() < 3 || !parseInt(Toks[2], V))
        return Fail("store requires a location and a value");
      I.K = Instruction::Kind::Store;
      I.Loc = P.ensureLoc(Toks[1]);
      I.Value = V;
      AttrsFrom = 3;
      if (Toks.size() > 3) {
        bool Ok;
        MemOrder MO = parseOrder(Toks[3], Ok);
        if (Ok) {
          I.MO = MO;
          AttrsFrom = 4;
        }
      }
    } else if (Cmd == "fence") {
      if (Toks.size() < 2)
        return Fail("fence requires a flavour");
      bool Ok;
      I.K = Instruction::Kind::Fence;
      I.FK = parseFence(Toks[1], Ok);
      if (!Ok)
        return Fail("unknown fence flavour: " + std::string(Toks[1]));
      AttrsFrom = 2;
      if (I.FK == FenceKind::CppFence && Toks.size() > 2) {
        MemOrder MO = parseOrder(Toks[2], Ok);
        if (Ok) {
          I.MO = MO;
          AttrsFrom = 3;
        }
      }
    } else if (Cmd == "txbegin") {
      I.K = Instruction::Kind::TxBegin;
      if (Toks.size() > 1 && Toks[1] == "atomic") {
        I.TxnAtomic = true;
        AttrsFrom = 2;
      }
    } else if (Cmd == "txend") {
      I.K = Instruction::Kind::TxEnd;
    } else if (Cmd == "lock") {
      I.K = Instruction::Kind::Lock;
    } else if (Cmd == "unlock") {
      I.K = Instruction::Kind::Unlock;
    } else if (Cmd == "txlock") {
      I.K = Instruction::Kind::TxLock;
    } else if (Cmd == "txunlock") {
      I.K = Instruction::Kind::TxUnlock;
    } else {
      return Fail("unknown instruction: " + std::string(Cmd));
    }

    if (!parseAttrs(Toks, AttrsFrom, I, AttrErr))
      return Fail(AttrErr);
    P.Threads[CurThread].push_back(std::move(I));
    P.SrcLines[CurThread].push_back(LineNo);
  }

  return Res;
}
