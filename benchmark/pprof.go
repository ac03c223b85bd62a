package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// hostShares reads a runtime/pprof CPU profile and returns, for each
// host group, its share of the profile's CPU time, attributing every
// sample to the innermost function of its leaf frame (flat time).
func hostShares(profile []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	byGroup := make(map[string]float64)
	var total float64
	for _, s := range p.samples {
		if len(s.locs) == 0 || len(s.values) <= p.valueIdx {
			continue
		}
		v := float64(s.values[p.valueIdx])
		name := p.strings.at(p.funcName[p.leafFunc[s.locs[0]]])
		byGroup[hostGroup(funcPackage(name))] += v
		total += v
	}
	shares := make(map[string]float64, len(hostGroups))
	for _, g := range hostGroups {
		shares[g] = ratio(byGroup[g], total)
	}
	return shares, nil
}

// funcPackage extracts the import path from a symbol name such as
// "dstore/internal/sim.(*Engine).Run" or "runtime.mallocgc".
func funcPackage(name string) string {
	slash := strings.LastIndexByte(name, '/')
	dot := strings.IndexByte(name[slash+1:], '.')
	if dot < 0 {
		return name
	}
	return name[:slash+1+dot]
}

// hostGroup maps an import path to its host group (see hostGroups).
func hostGroup(pkg string) string {
	if rest, ok := strings.CutPrefix(pkg, "dstore/internal/"); ok {
		top, _, _ := strings.Cut(rest, "/")
		switch top {
		case "sim", "gpu", "cache", "coherence", "mmu", "interconnect", "dram", "cpu",
			"snap", "store", "serve", "fleet", "modelcheck":
			return top
		case "core", "bench", "memsys", "memalloc", "trace":
			return "core"
		}
		return "other"
	}
	top, _, _ := strings.Cut(pkg, "/")
	switch {
	case pkg == "main":
		return "harness"
	case top == "runtime", strings.HasPrefix(pkg, "internal/runtime"):
		return "runtime"
	case top == "sync", pkg == "internal/sync":
		return "sync"
	case top == "net", top == "crypto", pkg == "internal/poll", pkg == "bufio":
		return "http"
	case top == "syscall", pkg == "os", strings.HasPrefix(pkg, "internal/syscall"):
		return "syscall"
	case top == "encoding", top == "reflect", top == "strconv", top == "unicode", top == "compress":
		return "encoding"
	}
	return "other"
}

// profile holds the parts of a profile.proto message hostShares needs.
type profile struct {
	valueIdx int
	samples  []sample
	leafFunc map[uint64]uint64 // location id -> innermost function id
	funcName map[uint64]int64  // function id -> string table index
	strings  stringTable
}

type sample struct {
	locs   []uint64
	values []int64
}

type stringTable []string

func (t stringTable) at(i int64) string {
	if i < 0 || int(i) >= len(t) {
		return ""
	}
	return t[i]
}

// Field numbers from github.com/google/pprof's profile.proto.
const (
	profSampleType  = 1
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	sampleLocationID = 1
	sampleValue      = 2
	valueTypeType    = 1
	locationID       = 1
	locationLine     = 4
	lineFunctionID   = 1
	functionID       = 1
	functionName     = 2
)

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{leafFunc: make(map[uint64]uint64), funcName: make(map[uint64]int64)}
	var sampleTypes []int64
	err := eachField(b, func(num int, v uint64, data []byte) error {
		switch num {
		case profSampleType:
			return eachField(data, func(num int, v uint64, _ []byte) error {
				if num == valueTypeType {
					sampleTypes = append(sampleTypes, int64(v))
				}
				return nil
			})
		case profSample:
			var s sample
			err := eachField(data, func(num int, v uint64, data []byte) error {
				switch num {
				case sampleLocationID:
					return eachVarint(v, data, func(x uint64) { s.locs = append(s.locs, x) })
				case sampleValue:
					return eachVarint(v, data, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case profLocation:
			var id, fn uint64
			first := true
			err := eachField(data, func(num int, v uint64, data []byte) error {
				switch num {
				case locationID:
					id = v
				case locationLine:
					// The first line is the innermost inlined function.
					if !first {
						return nil
					}
					first = false
					return eachField(data, func(num int, v uint64, _ []byte) error {
						if num == lineFunctionID {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			p.leafFunc[id] = fn
			return err
		case profFunction:
			var id uint64
			var name int64
			err := eachField(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case functionID:
					id = v
				case functionName:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case profStringTable:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// CPU profiles carry (samples, cpu nanoseconds); weigh by time.
	p.valueIdx = len(sampleTypes) - 1
	for i, t := range sampleTypes {
		if p.strings.at(t) == "cpu" {
			p.valueIdx = i
		}
	}
	if p.valueIdx < 0 {
		return nil, errors.New("pprof: profile declares no sample types")
	}
	return p, nil
}

var errTruncated = errors.New("pprof: truncated protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
func eachField(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("pprof: unsupported wire type %d", wire)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// eachVarint yields a repeated varint field in either encoding: one
// unpacked value v, or the packed run in data.
func eachVarint(v uint64, data []byte, fn func(uint64)) error {
	if data == nil {
		fn(v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errTruncated
		}
		fn(x)
		data = data[n:]
	}
	return nil
}
