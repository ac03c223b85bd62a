package modelcheck

import "dstore/internal/coherence"

// StandardSweep is the default verification portfolio: the set of
// configurations `dstore-modelcheck` (and CI) explore on every run.
// The single-line leg is generated from coherence.Protocols() — one
// deep run per flavour — so adding a flavour to that list
// automatically puts it under the checker. Budgets are chosen so the
// whole sweep finishes in well under a minute while still covering
// every protocol flavour:
//
//   - Single-line configurations carry the deepest budgets. Lines are
//     independent in the protocol — the memory controller serialises,
//     queues and probes per line, and agents' per-line state never
//     reads another line — so a single-line run with the full store
//     budget over-approximates any one line of a multi-line run (the
//     only shared state, the action budgets, is monotone: a line of a
//     product run always sees a subset of the budget a dedicated run
//     grants it).
//   - Two-line products catch exactly what composition cannot: bugs
//     in the cross-line bookkeeping itself (per-line busy/queue
//     confusion, line-indexing slips). Full interleaving of two
//     independent subsystems multiplies their state spaces, so the
//     products run with bounded eviction and load budgets.
//   - The 2-GPU product verifies the address-interleaved multi-slice
//     topology (two direct lines homed at two different GPU L2
//     slices) under symmetry reduction — the configuration the
//     parallel fingerprint checker exists for.
func StandardSweep() []Config {
	var cfgs []Config
	// One deep single-line run per protocol flavour
	// (coherence.Protocols()). The heap flavour additionally exercises
	// the bypass-dirty-victim store path; the resilient flavour gets
	// NACK and duplicate injection budgets (the chaos layer's
	// direct-link faults).
	for _, p := range coherence.Protocols() {
		cfg := Config{Agents: 3, Lines: 1, MaxStores: 2}
		if p.Direct {
			cfg.DirectLines = 1
		} else {
			cfg.Bypass = true
		}
		if p.Resilient {
			cfg.MaxNacks, cfg.MaxDups = 1, 1
		}
		cfg.Resilient = p.Resilient
		cfg.WriteThroughPush = p.WriteThroughPush
		cfgs = append(cfgs, cfg)
	}
	return append(cfgs,
		// Two-line products: heap + direct line under full
		// interleaving, bounded budgets.
		Config{Agents: 3, Lines: 2, DirectLines: 1, MaxStores: 2, MaxEvicts: 1, MaxLoads: 2},
		Config{Agents: 3, Lines: 2, DirectLines: 1, MaxStores: 1, MaxEvicts: 1, MaxLoads: 2, Bypass: true},
		// The 2-GPU-slice product: both lines direct, each homed at its
		// own slice. Symmetry folds the (slice, line) pair swap.
		Config{Agents: 4, GPUs: 2, Lines: 2, DirectLines: 2, MaxStores: 2,
			MaxEvicts: 1, MaxLoads: 2, Symmetry: true},
	)
}
