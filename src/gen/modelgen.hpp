// Parameterized SMV model generation (gen layer): scalable families of the
// paper's systems for benchmarking and scaling experiments.
//
//  - ringModel(n): a token ring of n stations.  Station i owns st<i> and
//    shares the token bits tok<i> (with its predecessor) and tok<i+1 mod n>
//    (with its successor), so every station touches only its two
//    neighbours' interface bits.
//  - afs2Model(n): the AFS-2 server of Figure 12 generalized to n clients
//    plus the n clients of Figure 13, mirroring models/afs2_composed.smv
//    (which is this family at n = 2, modulo formatting).
//
// Generated text is deterministic: goldens under models/gen/ are
// byte-compared against regeneration in tests.
#pragma once

#include <cstddef>
#include <string>

namespace cmc::gen {

/// Token ring with `n` stations (n >= 2).
std::string ringModel(std::size_t n);

/// AFS-2 server + `n` clients (n >= 1).
std::string afs2Model(std::size_t n);

}  // namespace cmc::gen
