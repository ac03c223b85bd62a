// Prefix memoization (DESIGN.md §11): benchmarks that start with a
// CPU produce phase share that phase's entire simulation across jobs
// that differ only in GPU-pipeline configuration. The produce phase
// runs once, the quiescent post-produce machine state is serialised
// (core.System.Snapshot) into a content-addressed store, and later
// jobs with the same (benchmark, input, prefix-relevant config)
// restore it and simulate only the kernel and readback phases —
// byte-identical to a run that never stopped.
package bench

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"

	"dstore/internal/core"
)

// SnapshotStore is a content-addressed snapshot cache. Implementations
// must be safe for concurrent use if the caller runs jobs
// concurrently.
type SnapshotStore interface {
	// Get returns the snapshot stored under key, if present.
	Get(key string) ([]byte, bool)
	// Put stores a snapshot under key.
	Put(key string, snapshot []byte)
}

// prefixConfig strips cfg down to the fields that can influence the
// CPU produce phase. The GPU pipeline is provably idle during
// produce — no kernel has launched, so no SM, GPU L1, GPU TLB or
// prefetch activity exists (the L2 slices DO participate, via pushes
// and probes, so slice geometry, policy, MSHRs and latencies all
// stay in the key). Zeroing the idle-side fields lets a GPU
// configuration sweep share one produce prefix.
func prefixConfig(cfg core.Config) core.Config {
	cfg.SMs = 0
	cfg.MaxWarpsPerSM = 0
	cfg.GPUL1Bytes = 0
	cfg.GPUL1Ways = 0
	cfg.GPUMSHRsPerSM = 0
	cfg.GPUL1Lat = 0
	cfg.SharedLat = 0
	cfg.GPUTLBSize = 0
	// The prefetcher only fires on L2-slice demand misses, which only
	// GPU loads can cause.
	cfg.PrefetchDepth = 0
	// The stall guard is a diagnostics watchdog; it never alters the
	// event sequence.
	cfg.StallGuardEvents = 0
	cfg.Chaos = nil
	cfg.Obs = nil
	return cfg
}

// PrefixKey returns the content address of the warm-up prefix for
// (code, cfg, in), and whether the combination is memoizable at all:
// the benchmark must open with a CPU produce phase, and the run must
// be free of fault injection and event tracing (a restored run skips
// the prefix's trace events, so traced jobs always run cold).
func PrefixKey(code string, cfg core.Config, in Input) (string, bool) {
	p, ok := find(code)
	if !ok || !p.cpuProduces {
		return "", false
	}
	if cfg.Chaos != nil {
		return "", false
	}
	if cfg.Obs != nil && cfg.Obs.Options().Trace {
		return "", false
	}
	cfgJSON, err := json.Marshal(prefixConfig(cfg))
	if err != nil {
		return "", false
	}
	h := sha256.New()
	var ver [4]byte
	binary.LittleEndian.PutUint32(ver[:], core.SnapshotVersion())
	h.Write([]byte("dstore-prefix\x00"))
	h.Write(ver[:])
	h.Write([]byte(code))
	h.Write([]byte{0})
	h.Write([]byte(in.String()))
	h.Write([]byte{0})
	h.Write(cfgJSON)
	return hex.EncodeToString(h.Sum(nil)), true
}

// RunWithSnapshotContext runs one benchmark under ctx with prefix
// memoization through store, and reports whether the run resumed from
// a stored snapshot. A nil store, an ineligible job, or a snapshot this
// build cannot restore runs cold; the Result is byte-identical either
// way.
func RunWithSnapshotContext(ctx context.Context, code string, cfg core.Config, in Input, store SnapshotStore) (Result, bool, error) {
	res, restored, _, err := run(ctx, code, cfg, in, store, nil)
	return res, restored, err
}
