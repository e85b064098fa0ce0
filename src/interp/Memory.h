//===- Memory.h - Paged sparse byte memory ----------------------*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The byte memory of both executors, the ISDL interpreter (and with it
/// the differential verifier) and the simulators. A byte is *held* or
/// absent: `operator[]` holds it, `erase` drops it and `get` reads an
/// absent byte as 0. Equality compares held bytes, so a written zero
/// differs from an absent byte; iteration visits held bytes by ascending
/// unsigned address. Pages of 256 bytes with a presence bitmap each sit in
/// an ordered page table; an absent byte of a page stays 0 and an emptied
/// page is dropped.
///
//===----------------------------------------------------------------------===//

#ifndef EXTRA_INTERP_MEMORY_H
#define EXTRA_INTERP_MEMORY_H

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <map>
#include <utility>

namespace extra {
namespace interp {

class Memory {
  static constexpr uint64_t PageSize = 256;

  struct Page {
    std::array<uint64_t, PageSize / 64> Held{};
    std::array<uint8_t, PageSize> Bytes{};
    bool operator==(const Page &) const = default;
  };
  using Table = std::map<uint64_t, Page>;

public:
  /// Holds the byte at \p Addr (0 when it was absent) and returns it.
  uint8_t &operator[](uint64_t Addr) {
    Page &P = Pages[Addr / PageSize];
    uint64_t Off = Addr % PageSize;
    P.Held[Off / 64] |= uint64_t(1) << (Off % 64);
    return P.Bytes[Off];
  }
  /// The byte at \p Addr; 0 when absent.
  uint8_t get(uint64_t Addr) const {
    auto It = Pages.find(Addr / PageSize);
    return It == Pages.end() ? 0 : It->second.Bytes[Addr % PageSize];
  }
  bool contains(uint64_t Addr) const {
    auto It = Pages.find(Addr / PageSize);
    return It != Pages.end() &&
           (It->second.Held[Addr % PageSize / 64] >> (Addr % 64) & 1);
  }
  /// Makes the byte at \p Addr absent.
  void erase(uint64_t Addr) {
    auto It = Pages.find(Addr / PageSize);
    if (It == Pages.end())
      return;
    Page &P = It->second;
    P.Held[Addr % PageSize / 64] &= ~(uint64_t(1) << (Addr % 64));
    P.Bytes[Addr % PageSize] = 0;
    if (P.Held == decltype(P.Held){})
      Pages.erase(It);
  }

  bool operator==(const Memory &O) const { return Pages == O.Pages; }

  /// Ascending `(address, byte)` pairs of the held bytes.
  class const_iterator {
  public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = std::pair<uint64_t, uint8_t>;
    using difference_type = std::ptrdiff_t;
    using reference = value_type;

    value_type operator*() const {
      return {It->first * PageSize + Off, It->second.Bytes[Off]};
    }
    const_iterator &operator++() {
      ++Off;
      return settle();
    }
    bool operator==(const const_iterator &O) const {
      return It == O.It && Off == O.Off;
    }

  private:
    friend class Memory;
    const_iterator(Table::const_iterator It, Table::const_iterator End)
        : It(It), End(End) {
      settle();
    }
    /// Moves to the first held byte at or after the current one.
    const_iterator &settle() {
      for (; It != End; ++It, Off = 0)
        for (; Off < PageSize; Off = (Off | 63) + 1)
          if (uint64_t Bits = It->second.Held[Off / 64] >> (Off % 64)) {
            Off += std::countr_zero(Bits);
            return *this;
          }
      Off = 0;
      return *this;
    }
    Table::const_iterator It, End;
    uint64_t Off = 0;
  };
  const_iterator begin() const { return {Pages.begin(), Pages.end()}; }
  const_iterator end() const { return {Pages.end(), Pages.end()}; }

private:
  Table Pages;
};

} // namespace interp
} // namespace extra

#endif // EXTRA_INTERP_MEMORY_H
