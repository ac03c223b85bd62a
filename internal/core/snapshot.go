package core

import (
	"fmt"
	"sync"

	"dstore/internal/interconnect"
	"dstore/internal/snap"
)

// Snapshot container format (DESIGN.md §11): a magic string, a format
// version, then fixed-order component sections. Any change to a
// component's field order or to the section order below is a version
// bump; readers reject other versions outright rather than guessing.
const (
	snapshotMagic   = "DSSNAP"
	snapshotVersion = 1
)

// SnapshotVersion is the current container format version; it
// participates in snapshot cache keys so a format change can never
// resurrect stale state.
func SnapshotVersion() uint32 { return snapshotVersion }

// scratch holds encode buffers between snapshots. Snapshot borrows
// one, encodes into it and returns an exact-length copy, so a steady
// stream of snapshots allocates only the blobs.
var scratch = sync.Pool{New: func() any { return &snap.Writer{} }}

// VerifySnapshotHeader checks that data opens with the DSSNAP
// container fingerprint this build reads: the magic string and the
// current format version. It validates nothing past the header — a
// full structural check is RestoreSnapshot's job — but it is exactly
// the cheap screen a persistent snapshot store needs to quarantine
// foreign or stale-format blobs at startup.
func VerifySnapshotHeader(data []byte) error {
	r := snap.NewReader(data)
	magic := r.String()
	if err := r.Err(); err != nil {
		return fmt.Errorf("core: not a snapshot stream: %w", err)
	}
	if magic != snapshotMagic {
		return fmt.Errorf("core: not a snapshot stream (magic %q)", magic)
	}
	v := r.U32()
	if err := r.Err(); err != nil {
		return fmt.Errorf("core: not a snapshot stream: %w", err)
	}
	if v != snapshotVersion {
		return fmt.Errorf("core: snapshot format version %d, this build reads %d", v, snapshotVersion)
	}
	return nil
}

// Snapshot serialises the full system state at a quiescent point: the
// engine queue must be fully drained (as it is between workload
// phases — RunCPU/RunKernel return only once every event has run).
// Chaos-attached systems are not snapshottable. The stream restores
// with RestoreSnapshot into a *freshly built* system with the same
// configuration and the same (deterministic) workload build applied;
// build-time state — the address space layout — is reproduced by the
// build, fingerprinted here, and verified on restore.
func (s *System) Snapshot() ([]byte, error) {
	if n := s.Engine.Pending(); n != 0 {
		return nil, fmt.Errorf("core: snapshot with %d events pending", n)
	}
	if s.Cfg.Chaos != nil {
		return nil, fmt.Errorf("core: snapshot of a chaos-injected system")
	}
	w := scratch.Get().(*snap.Writer)
	defer func() {
		w.Reset()
		scratch.Put(w)
	}()
	w.String(snapshotMagic)
	w.U32(snapshotVersion)

	// Address-space fingerprint: build-time state, verified not
	// restored.
	w.Tag("space")
	regions := s.Space.Regions()
	w.U32(uint32(len(regions)))
	for _, reg := range regions {
		w.U64(uint64(reg.Base))
		w.U64(reg.Size)
	}

	s.Engine.SnapshotTo(w)
	s.Vers.SnapshotTo(w)
	s.PT.SnapshotTo(w)
	s.Core.SnapshotTo(w)
	s.GPU.SnapshotTo(w)
	s.CPUCtrl.SnapshotTo(w)
	w.U32(uint32(len(s.Slices)))
	for _, sl := range s.Slices {
		sl.SnapshotTo(w)
	}
	s.Mem.SnapshotTo(w)
	s.snapshotNet(w)
	s.Direct.SnapshotTo(w)
	s.DRAM.SnapshotTo(w)
	s.ctr.Rows().SnapshotTo(w)
	blob := make([]byte, w.Len())
	copy(blob, w.Bytes())
	return blob, nil
}

func (s *System) snapshotNet(w *snap.Writer) {
	switch net := s.Net.(type) {
	case *interconnect.Crossbar:
		net.SnapshotTo(w)
	case *interconnect.Ring:
		net.SnapshotTo(w)
	default:
		// Unreachable with the topologies NewSystem builds; tag so a
		// future topology fails restore loudly instead of desyncing.
		w.Tag("net-unknown")
	}
}

// RestoreSnapshot loads a Snapshot stream into this system. The
// system must be freshly built with an identical configuration and
// workload (so the address space matches the fingerprint) and its
// engine must be idle. On error the system is in an undefined state
// and must be discarded; on success the simulation resumes exactly
// where the snapshot was taken, byte-identical to a run that never
// stopped.
func (s *System) RestoreSnapshot(data []byte) error {
	if s.Cfg.Chaos != nil {
		return fmt.Errorf("core: restore into a chaos-injected system")
	}
	r := snap.NewReader(data)
	if magic := r.String(); r.Err() == nil && magic != snapshotMagic {
		return fmt.Errorf("core: not a snapshot stream (magic %q)", magic)
	}
	if v := r.U32(); r.Err() == nil && v != snapshotVersion {
		return fmt.Errorf("core: snapshot format version %d, this build reads %d", v, snapshotVersion)
	}

	r.Tag("space")
	regions := s.Space.Regions()
	if n := r.U32(); r.Err() == nil && int(n) != len(regions) {
		r.Failf("core: snapshot has %d address-space regions, system has %d", n, len(regions))
	}
	for _, reg := range regions {
		base := r.U64()
		size := r.U64()
		if r.Err() != nil {
			break
		}
		if base != uint64(reg.Base) || size != reg.Size {
			r.Failf("core: address-space region %q at %#x/%d does not match snapshot %#x/%d",
				reg.Name, uint64(reg.Base), reg.Size, base, size)
			break
		}
	}

	s.Engine.RestoreFrom(r)
	s.Vers.RestoreFrom(r)
	s.PT.RestoreFrom(r)
	s.Core.RestoreFrom(r)
	s.GPU.RestoreFrom(r)
	s.CPUCtrl.RestoreFrom(r)
	if n := r.U32(); r.Err() == nil && int(n) != len(s.Slices) {
		r.Failf("core: snapshot has %d L2 slices, system has %d", n, len(s.Slices))
	}
	if r.Err() == nil {
		for _, sl := range s.Slices {
			sl.RestoreFrom(r)
		}
	}
	s.Mem.RestoreFrom(r)
	switch net := s.Net.(type) {
	case *interconnect.Crossbar:
		net.RestoreFrom(r)
	case *interconnect.Ring:
		net.RestoreFrom(r)
	default:
		r.Tag("net-unknown")
	}
	s.Direct.RestoreFrom(r)
	s.DRAM.RestoreFrom(r)
	s.ctr.Rows().RestoreFrom(r)
	return r.Done()
}
