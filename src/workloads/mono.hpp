// MonoWorkload: the monomorphization adapter between the Workload
// interface and the static dispatch tier (DESIGN.md §4.12).
//
// A workload derives from MonoWorkload<Self> and implements ONE body,
//
//   template <typename TxT> void op_t(unsigned tid, Rng& rng);
//
// written against the deduced descriptor type (its atomically<TxT> lambdas
// take TxT&, and every TVar/container call forwards TxT). The mixin then
// provides both Workload entry points from that single source:
//
//  - run_ops() switches once per thread-loop over the algorithm id
//              (dispatch_algorithm) and instantiates op_t<Core> for the
//              concrete descriptor: zero virtual calls inside the loop.
//              This is the loop the driver runs.
//  - op()      instantiates op_t<Tx>: one operation through the
//              type-erased Tx facade, one virtual call per TM access.
//
// Both instantiations execute the same statements against the same
// descriptor object; tests/test_dispatch.cpp checks that they produce
// bit-identical statistics.
#pragma once

#include <cstdint>

#include "core/dispatch.hpp"
#include "workloads/driver.hpp"

namespace semstm {

template <typename Derived>
class MonoWorkload : public Workload {
 public:
  void op(unsigned tid, Rng& rng) final {
    static_cast<Derived&>(*this).template op_t<Tx>(tid, rng);
  }

  void run_ops(AlgoId algo, unsigned tid, Rng& rng,
               std::uint64_t ops) final {
    dispatch_algorithm(algo, [&](auto tag) {
      using TxT = typename decltype(tag)::tx_type;
      Derived& self = static_cast<Derived&>(*this);
      for (std::uint64_t i = 0; i < ops; ++i) {
        self.template op_t<TxT>(tid, rng);
      }
    });
  }
};

}  // namespace semstm
