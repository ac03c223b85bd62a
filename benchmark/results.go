package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"sort"
	"sync"

	"dstore/internal/bench"
	"dstore/internal/serve"
)

// resultBook remembers the first result body served for each job, so
// every later answer for the same job can be held to the same bytes and
// a sample re-run in process after the timed part.
type resultBook struct {
	mu     sync.Mutex
	bodies map[string][]byte
	specs  map[string]serve.JobSpec
}

func newResultBook() *resultBook {
	return &resultBook{bodies: make(map[string][]byte), specs: make(map[string]serve.JobSpec)}
}

// record files body as job id's result, or reports that it differs from
// the body recorded first.
func (b *resultBook) record(id string, spec serve.JobSpec, body []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	first, ok := b.bodies[id]
	if !ok {
		b.bodies[id] = bytes.Clone(body)
		b.specs[id] = spec
		return nil
	}
	if !bytes.Equal(first, body) {
		return fmt.Errorf("job %.12s: result differs from the first answer for the same spec", id)
	}
	return nil
}

// ids returns the recorded job IDs in sorted order.
func (b *resultBook) ids() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	ids := make([]string, 0, len(b.bodies))
	for id := range b.bodies {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// verifySample re-runs a seeded tenth (at least one) of the recorded
// jobs with bench.RunWithConfig and returns a message for every served
// body that differs from the in-process result.
func (b *resultBook) verifySample(rng *rand.Rand) []string {
	ids := b.ids()
	if len(ids) == 0 {
		return []string{"no results were recorded"}
	}
	var errs []string
	for _, i := range rng.Perm(len(ids))[:(len(ids)+9)/10] {
		id := ids[i]
		spec := b.specs[id]
		cfg, err := spec.BuildConfig()
		if err != nil {
			errs = append(errs, fmt.Sprintf("job %.12s: %v", id, err))
			continue
		}
		res, err := bench.RunWithConfig(spec.Bench, cfg, inputOf(spec.Input))
		if err != nil {
			errs = append(errs, fmt.Sprintf("job %.12s: in-process run: %v", id, err))
			continue
		}
		want, err := serve.EncodeResult(res)
		if err != nil {
			errs = append(errs, fmt.Sprintf("job %.12s: %v", id, err))
			continue
		}
		if !bytes.Equal(b.bodies[id], want) {
			errs = append(errs, fmt.Sprintf("job %.12s (%s %s %s): served result differs from the in-process run", id, spec.Bench, spec.Mode, spec.Input))
		}
	}
	return errs
}

// inputOf maps a normalized JobSpec input name to its bench.Input.
func inputOf(name string) bench.Input {
	if name == bench.Big.String() {
		return bench.Big
	}
	return bench.Small
}
