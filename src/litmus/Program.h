//===- Program.h - Litmus test programs -------------------------*- C++ -*-==//
///
/// \file
/// Litmus tests: small multi-threaded programs with a postcondition that
/// passes exactly when one execution of interest was taken (§2.2). Threads
/// are straight-line sequences of loads, stores, fences, transaction
/// delimiters and (for lock-elision tests) lock method calls; dependencies
/// are recorded structurally and rendered by the per-architecture printers
/// (e.g. as `eor`-tricks).
///
/// Each load implicitly defines a register named after its instruction
/// index; postconditions assert register and final-memory values.
///
//===----------------------------------------------------------------------===//

#ifndef TMW_LITMUS_PROGRAM_H
#define TMW_LITMUS_PROGRAM_H

#include "execution/Event.h"

#include <algorithm>
#include <compare>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace tmw {

/// One straight-line litmus instruction.
struct Instruction {
  enum class Kind : uint8_t {
    Load,
    Store,
    Fence,
    /// Begin a transaction; on abort, control transfers to a handler that
    /// zeroes the `ok` location (Fig. 2).
    TxBegin,
    TxEnd,
    Lock,
    Unlock,
    /// lock() to be elided (starts a transactional critical region).
    TxLock,
    TxUnlock,
  };

  Kind K = Kind::Load;
  LocId Loc = -1;
  /// Stored value (writes only).
  int Value = 0;
  MemOrder MO = MemOrder::NonAtomic;
  FenceKind FK = FenceKind::None;
  /// Half of an exclusive / locked RMW pair.
  bool Exclusive = false;
  /// Instruction index (same thread) of the RMW partner, or -1.
  int RmwPartner = -1;
  /// C++ atomic{} (vs synchronized{}) for TxBegin.
  bool TxnAtomic = false;
  /// Indices of earlier loads this instruction's address depends on.
  std::vector<unsigned> AddrDeps;
  /// Indices of earlier loads this instruction's data depends on.
  std::vector<unsigned> DataDeps;
  /// Indices of earlier loads this instruction is control-dependent on.
  std::vector<unsigned> CtrlDeps;
};

/// Asserts that the register defined by load \p LoadIndex of \p Thread
/// holds \p Value.
struct RegAssertion {
  unsigned Thread;
  unsigned LoadIndex;
  int Value;
};

/// Asserts that location \p Loc holds \p Value in the final state.
struct MemAssertion {
  LocId Loc;
  int Value;
};

/// A litmus test: initial state, threads, postcondition.
struct Program {
  std::string Name;
  std::vector<std::vector<Instruction>> Threads;
  /// Source line (1-based) of each instruction, parallel to `Threads`.
  /// Filled by `parseProgram`; programs built programmatically leave it
  /// empty, and consumers (the lint pass) report line 0 for those.
  std::vector<std::vector<unsigned>> SrcLines;
  /// Non-zero initial values (all other locations start at 0).
  std::vector<std::pair<LocId, int>> InitialValues;
  std::vector<RegAssertion> RegPost;
  std::vector<MemAssertion> MemPost;
  /// Source line (1-based) of each `post`, parallel to `RegPost` and
  /// `MemPost`; filled and left empty like `SrcLines`.
  std::vector<unsigned> RegPostLines, MemPostLines;
  /// Location names; index = LocId. The `ok` location, when present, is
  /// named "ok".
  std::vector<std::string> LocNames;

  /// Initial value of \p Loc (0 unless overridden).
  int initialValue(LocId Loc) const;
  /// Index of the location named \p Name, or -1. Takes a view, so the
  /// parser looks a token up without building a string.
  LocId locByName(std::string_view Name) const;
  /// Add (or find) a location named \p Name; a string is built only when
  /// the name is new.
  LocId ensureLoc(std::string_view Name);
  /// True when any thread contains a transaction.
  bool hasTransactions() const;
};

/// A sequence of trivially copyable \p T that keeps up to \p N elements
/// inside the object and moves to one heap block only past them, so
/// copying or destroying a short sequence never touches the allocator.
/// Compares lexicographically, like `std::vector`.
template <class T, unsigned N> class InlineVector {
  static_assert(std::is_trivially_copyable_v<T>);

public:
  InlineVector() = default;
  InlineVector(std::initializer_list<T> L) { append(L.begin(), L.size()); }
  InlineVector(const InlineVector &O) { append(O.data(), O.Size); }
  InlineVector(InlineVector &&O) noexcept { take(O); }
  InlineVector &operator=(const InlineVector &O) {
    if (this != &O) {
      Size = 0;
      append(O.data(), O.Size);
    }
    return *this;
  }
  InlineVector &operator=(InlineVector &&O) noexcept {
    if (this != &O) {
      delete[] Heap;
      take(O);
    }
    return *this;
  }
  ~InlineVector() { delete[] Heap; }

  T *begin() { return data(); }
  T *end() { return data() + Size; }
  const T *begin() const { return data(); }
  const T *end() const { return data() + Size; }
  size_t size() const { return Size; }
  bool empty() const { return Size == 0; }
  T &operator[](size_t I) { return data()[I]; }
  const T &operator[](size_t I) const { return data()[I]; }

  void clear() { Size = 0; }
  void push_back(T V) { append(&V, 1); }
  /// Replace the contents with \p Count copies of \p V.
  void assign(size_t Count, T V) {
    Size = 0;
    reserve(Count);
    std::fill_n(data(), Count, V);
    Size = static_cast<uint32_t>(Count);
  }

  bool operator==(const InlineVector &O) const {
    return std::equal(begin(), end(), O.begin(), O.end());
  }
  auto operator<=>(const InlineVector &O) const {
    return std::lexicographical_compare_three_way(begin(), end(), O.begin(),
                                                  O.end());
  }

private:
  T *data() { return Heap ? Heap : Inline; }
  const T *data() const { return Heap ? Heap : Inline; }
  void reserve(size_t Want) {
    if (Want <= Cap)
      return;
    size_t NewCap = std::max<size_t>(Want, 2 * size_t(Cap));
    T *Block = new T[NewCap];
    std::copy_n(data(), Size, Block);
    delete[] Heap;
    Heap = Block;
    Cap = static_cast<uint32_t>(NewCap);
  }
  void append(const T *Src, size_t Count) {
    reserve(Size + Count);
    std::copy_n(Src, Count, data() + Size);
    Size += static_cast<uint32_t>(Count);
  }
  /// Take \p O's elements, leaving it empty and inline.
  void take(InlineVector &O) {
    std::copy_n(O.Inline, N, Inline);
    Heap = std::exchange(O.Heap, nullptr);
    Size = std::exchange(O.Size, 0);
    Cap = std::exchange(O.Cap, N);
  }

  T Inline[N] = {};
  /// The elements once they outgrow `Inline`; null until then.
  T *Heap = nullptr;
  uint32_t Size = 0, Cap = N;
};

/// One register of an outcome: load \p Load of \p Thread read \p Value.
/// Orders by (Thread, Load, Value).
struct RegValue {
  unsigned Thread;
  unsigned Load;
  int Value;

  auto operator<=>(const RegValue &) const = default;
};

/// Registers and locations an `Outcome` holds without a heap block. Every
/// outcome of the built-in corpus and of the benchmark's program pool has
/// at most 4 registers and 3 locations, so copying an outcome into a
/// model's list, or freeing one, costs no allocation there; a larger
/// program still gets its answer through the heap path.
inline constexpr unsigned kOutcomeInline = 4;

/// A concrete outcome of running a litmus test: the values of every
/// asserted register and the final value of every location. A flat
/// value: both sequences sit inside the object up to `kOutcomeInline`
/// elements each.
struct Outcome {
  /// (thread, load index, value) triples, sorted.
  InlineVector<RegValue, kOutcomeInline> RegValues;
  /// Final value per location id.
  InlineVector<int, kOutcomeInline> MemValues;

  bool operator==(const Outcome &O) const = default;
  /// Registers first, then final memory, each lexicographically.
  auto operator<=>(const Outcome &O) const = default;
  /// True when this outcome satisfies the program's postcondition.
  bool satisfies(const Program &P) const;
  /// Render as "r0=1; x=2; ...".
  std::string str(const Program &P) const;
};

} // namespace tmw

#endif // TMW_LITMUS_PROGRAM_H
