//===- Program.cpp - Litmus test programs -------------------------------------==//

#include "litmus/Program.h"

#include <algorithm>
#include <cstdio>

using namespace tmw;

int Program::initialValue(LocId Loc) const {
  for (const auto &[L, V] : InitialValues)
    if (L == Loc)
      return V;
  return 0;
}

LocId Program::locByName(std::string_view Name) const {
  for (unsigned I = 0; I < LocNames.size(); ++I)
    if (LocNames[I] == Name)
      return static_cast<LocId>(I);
  return -1;
}

LocId Program::ensureLoc(std::string_view Name) {
  LocId L = locByName(Name);
  if (L >= 0)
    return L;
  LocNames.emplace_back(Name);
  return static_cast<LocId>(LocNames.size() - 1);
}

bool Program::hasTransactions() const {
  for (const auto &T : Threads)
    for (const auto &I : T)
      if (I.K == Instruction::Kind::TxBegin)
        return true;
  return false;
}

bool Outcome::satisfies(const Program &P) const {
  for (const RegAssertion &A : P.RegPost) {
    bool Found = false;
    for (const auto &[T, L, V] : RegValues)
      if (T == A.Thread && L == A.LoadIndex) {
        if (V != A.Value)
          return false;
        Found = true;
      }
    if (!Found)
      return false;
  }
  for (const MemAssertion &A : P.MemPost) {
    if (A.Loc < 0 || static_cast<size_t>(A.Loc) >= MemValues.size())
      return false;
    if (MemValues[A.Loc] != A.Value)
      return false;
  }
  return true;
}

std::string Outcome::str(const Program &P) const {
  std::string Out;
  char Buf[64];
  for (const auto &[T, L, V] : RegValues) {
    snprintf(Buf, sizeof(Buf), "%u:r%u=%d; ", T, L, V);
    Out += Buf;
  }
  for (unsigned L = 0; L < MemValues.size(); ++L) {
    const char *Name =
        L < P.LocNames.size() ? P.LocNames[L].c_str() : "?";
    snprintf(Buf, sizeof(Buf), "%s=%d; ", Name, MemValues[L]);
    Out += Buf;
  }
  if (!Out.empty()) {
    Out.pop_back();
    Out.pop_back();
  }
  return Out;
}
