// Package coherence implements the cache coherence layer: a
// broadcast-based MOESI protocol in the style of AMD's Hammer (the
// MOESI_hammer configuration the paper bases its Fig. 3 on), plus the
// paper's direct-store extension.
//
// Stable states follow the paper's naming:
//
//	MM — exclusive and potentially locally modified (conventional M)
//	M  — exclusive but not written (conventional E); stores not allowed
//	O  — owns the block, unmodified copy responsibility, sharers may exist
//	S  — shared, read-only
//	I  — invalid
//
// The direct-store extension adds the remote-store path: a store whose
// virtual address falls in the reserved high-order range is never
// cached CPU-side. The CPU L1 controller takes the line to I from
// whatever state it held (I/S/M/MM → I, the bold transitions in the
// paper's Fig. 3) and forwards the data over the dedicated network as a
// PUTX; the GPU L2 slice that owns the address installs it I → MM (the
// blue dashed transition).
//
// Transaction serialisation: the memory controller is the ordering
// point. At most one coherence transaction is in flight per line
// system-wide; later requests for a busy line queue at the controller.
// This collapses the transient-state explosion of a full Ruby
// implementation while preserving the message sequences, hop counts and
// data movement the experiments measure.
package coherence

import (
	"fmt"

	"dstore/internal/interconnect"
	"dstore/internal/memsys"
)

// State is a MOESI-Hammer stable state. I is the zero value so the cache
// array's invalid convention (state 0) matches.
type State = uint8

// Stable protocol states (paper Fig. 3).
const (
	I  State = 0
	S  State = 1
	O  State = 2
	M  State = 3 // exclusive clean: stores not allowed (must upgrade to MM)
	MM State = 4 // exclusive, potentially modified
)

// StateName returns the paper's name for a state.
func StateName(s State) string {
	switch s {
	case I:
		return "I"
	case S:
		return "S"
	case O:
		return "O"
	case M:
		return "M"
	case MM:
		return "MM"
	default:
		return fmt.Sprintf("State(%d)", s)
	}
}

// CanRead reports whether a load may be satisfied from state s.
func CanRead(s State) bool { return s != I }

// CanWrite reports whether a store may be performed in state s without a
// coherence transaction. Per the paper, stores are not allowed in M
// (exclusive clean) — but the M→MM upgrade is silent since no other node
// holds a copy, so the controller performs it locally.
func CanWrite(s State) bool { return s == MM }

// ReqType classifies requests arriving at the memory controller.
type ReqType uint8

// Request types.
const (
	// GETS asks for a readable copy.
	GETS ReqType = iota
	// GETX asks for an exclusive, writable copy; all other copies are
	// invalidated.
	GETX
	// WB writes back a dirty evicted line to memory.
	WB
	// RemoteLoad is an uncacheable read: the CPU loading from the
	// direct-store region. Data is returned but no copy installs and the
	// owner keeps its state.
	RemoteLoad
)

// String names the request type.
func (t ReqType) String() string {
	switch t {
	case GETS:
		return "GETS"
	case GETX:
		return "GETX"
	case WB:
		return "WB"
	case RemoteLoad:
		return "RemoteLoad"
	default:
		return fmt.Sprintf("ReqType(%d)", uint8(t))
	}
}

// ReqMsg travels requester → memory controller.
type ReqMsg struct {
	Type ReqType
	Addr memsys.Addr
	// From is the requester's network port.
	From interconnect.Port
	// Ver carries the data version for WB.
	Ver uint64
}

// ProbeKind classifies probes sent by the memory controller.
type ProbeKind uint8

// Probe kinds.
const (
	// PrbShare asks the target to surrender a readable copy: an owner
	// supplies data and downgrades to O; sharers report presence.
	PrbShare ProbeKind = iota
	// PrbInv asks the target to invalidate, supplying data if owner.
	PrbInv
	// PrbSnoop asks the target to supply data without any state change
	// (used for RemoteLoad's uncacheable reads).
	PrbSnoop
)

// String names the probe kind.
func (k ProbeKind) String() string {
	switch k {
	case PrbShare:
		return "PrbShare"
	case PrbInv:
		return "PrbInv"
	case PrbSnoop:
		return "PrbSnoop"
	default:
		return fmt.Sprintf("ProbeKind(%d)", uint8(k))
	}
}

// ProbeMsg travels memory controller → peer cache.
type ProbeMsg struct {
	Kind ProbeKind
	Addr memsys.Addr
	// Requester is the original requester's network port: an owner
	// sends its data straight there.
	Requester interconnect.Port
}

// AckMsg travels peer cache → memory controller in answer to a probe.
type AckMsg struct {
	Addr memsys.Addr
	From interconnect.Port
	// HadData reports the peer was owner and its copy (with Ver) is the
	// authoritative data.
	HadData bool
	// Present reports the peer held a (possibly shared) copy.
	Present bool
	// Dirty reports the surrendered data was modified relative to
	// memory.
	Dirty bool
	Ver   uint64
}

// DataMsg completes a miss at the requester. Hammer is a 3-hop
// protocol: when a peer cache owns the line it sends the data directly
// to the requester (the memory controller only sees a control-sized
// acknowledgement); otherwise the memory controller sources DRAM and
// sends the data itself.
type DataMsg struct {
	Addr memsys.Addr
	Ver  uint64
	// Grant is the state the requester installs (I for uncacheable
	// remote-load data).
	Grant State
	// Owned marks the data as dirty-with-respect-to-memory: the
	// requester becomes responsible for eventual writeback.
	Owned bool
}

// PutxMsg is the direct-store push: CPU L1 controller → GPU L2 slice
// over the dedicated network. The slice installs the line in MM.
type PutxMsg struct {
	Addr memsys.Addr
	Ver  uint64
	From interconnect.Port
	// Seq is non-zero only under the resilient push protocol (chaos
	// runs): it identifies the push for acknowledgement, retry and
	// receiver-side duplicate suppression. Zero means fire-and-forget
	// (the paper's baseline behaviour).
	Seq uint64
}

// PushAckMsg travels GPU L2 slice → CPU controller over the shared
// crossbar, acknowledging (or refusing) a resilient direct-store push.
// It exists only in chaos runs; the baseline push path sends nothing
// back.
type PushAckMsg struct {
	Addr memsys.Addr
	Seq  uint64
	// Nack asks the sender to retry later (injected receiver-side
	// faults; a real controller would assert it on resource conflicts).
	Nack bool
}
