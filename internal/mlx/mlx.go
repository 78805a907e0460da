// Package mlx defines the wire formats of the simulated NIC's work and
// completion queues, modelled on Mellanox mlx5 conventions: 64-byte Work
// Queue Entries (WQEs) with inline data segments, 64-byte Completion Queue
// Entries (CQEs) with an ownership byte and inline payload scatter for small
// messages, and power-of-two rings living in host memory.
//
// Everything is byte-encoded: software encodes a WQE into the bytes it PIO
// copies (or that the NIC DMA-reads), and the NIC decodes those bytes — so a
// corrupted or truncated descriptor fails loudly, as on real hardware.
package mlx

import (
	"encoding/binary"
	"errors"
	"fmt"

	"breakband/internal/memsim"
)

// Fixed sizes.
const (
	WQESize   = 64 // one basic WQE building block ("the PIO occurs in 64-byte chunks")
	CQESize   = 64 // "a completion ... is 64 bytes in Mellanox InfiniBand"
	InlineMax = 32 // inline payload capacity of a single-chunk WQE
	// ScatterMax is the largest payload a recv CQE can carry inline
	// (CQE inline scatter, used for small sends so the payload and the
	// completion arrive in one DMA write).
	ScatterMax = 32
)

// Opcode is the WQE operation.
type Opcode uint8

// Opcodes.
const (
	OpNop Opcode = iota
	OpRDMAWrite
	OpSend
)

// String implements fmt.Stringer.
func (o Opcode) String() string {
	switch o {
	case OpNop:
		return "NOP"
	case OpRDMAWrite:
		return "RDMA_WRITE"
	case OpSend:
		return "SEND"
	default:
		return fmt.Sprintf("OP(%d)", uint8(o))
	}
}

// WQE flag bits.
const (
	flagSignaled = 1 << 0
	flagInline   = 1 << 1
)

// WQE is a decoded work queue entry.
type WQE struct {
	Opcode   Opcode
	Signaled bool // request a CQE for this WQE's completion
	Inline   bool // payload embedded in the descriptor
	WQEIdx   uint16
	QPN      uint32
	AmID     uint8
	// Inline payload (Inline == true), at most InlineMax bytes.
	Payload []byte
	// Gather descriptor (Inline == false).
	GatherAddr uint64
	GatherLen  uint32
	// RDMA target (OpRDMAWrite).
	RemoteAddr uint64
}

// Layout of the 64-byte WQE:
//
//	 0: opcode  (1)    1: flags (1)    2: wqe idx (2)
//	 4: qpn (4)        8: payload len (4)   12: am id (1), pad (3)
//	16: remote addr (8)   24: gather addr (8)   32: inline payload (32)
const (
	offOpcode  = 0
	offFlags   = 1
	offWQEIdx  = 2
	offQPN     = 4
	offLen     = 8
	offAmID    = 12
	offRaddr   = 16
	offGather  = 24
	offPayload = 32
)

// Encode serializes w into a 64-byte descriptor.
func (w *WQE) Encode() ([WQESize]byte, error) {
	var b [WQESize]byte
	if w.Inline && len(w.Payload) > InlineMax {
		return b, fmt.Errorf("mlx: inline payload %d exceeds %d bytes", len(w.Payload), InlineMax)
	}
	b[offOpcode] = byte(w.Opcode)
	var fl byte
	if w.Signaled {
		fl |= flagSignaled
	}
	if w.Inline {
		fl |= flagInline
	}
	b[offFlags] = fl
	binary.LittleEndian.PutUint16(b[offWQEIdx:], w.WQEIdx)
	binary.LittleEndian.PutUint32(b[offQPN:], w.QPN)
	b[offAmID] = w.AmID
	binary.LittleEndian.PutUint64(b[offRaddr:], w.RemoteAddr)
	if w.Inline {
		binary.LittleEndian.PutUint32(b[offLen:], uint32(len(w.Payload)))
		copy(b[offPayload:], w.Payload)
	} else {
		binary.LittleEndian.PutUint32(b[offLen:], w.GatherLen)
		binary.LittleEndian.PutUint64(b[offGather:], w.GatherAddr)
	}
	return b, nil
}

// DecodeFrom parses a 64-byte descriptor into w, overwriting every field.
// The inline payload is not copied: w.Payload aliases it inside b, valid
// for as long as b is, so a caller-owned scratch WQE decodes messages
// without copying or allocating. On error w is left partially overwritten
// and must not be used.
func (w *WQE) DecodeFrom(b []byte) error {
	if len(b) < WQESize {
		return fmt.Errorf("mlx: short WQE (%d bytes)", len(b))
	}
	w.Opcode = Opcode(b[offOpcode])
	w.Signaled = b[offFlags]&flagSignaled != 0
	w.Inline = b[offFlags]&flagInline != 0
	w.WQEIdx = binary.LittleEndian.Uint16(b[offWQEIdx:])
	w.QPN = binary.LittleEndian.Uint32(b[offQPN:])
	w.AmID = b[offAmID]
	if w.Opcode == OpNop || w.Opcode > OpSend {
		return fmt.Errorf("mlx: bad WQE opcode %d", b[offOpcode])
	}
	n := binary.LittleEndian.Uint32(b[offLen:])
	w.RemoteAddr = binary.LittleEndian.Uint64(b[offRaddr:])
	if w.Inline {
		if n > InlineMax {
			return fmt.Errorf("mlx: inline length %d exceeds %d", n, InlineMax)
		}
		w.GatherAddr, w.GatherLen = 0, 0
		w.Payload = b[offPayload : offPayload+int(n)]
	} else {
		w.GatherLen = n
		w.GatherAddr = binary.LittleEndian.Uint64(b[offGather:])
		w.Payload = nil
	}
	return nil
}

// DecodeWQE parses a 64-byte descriptor into a fresh WQE, whose inline
// payload aliases b (see DecodeFrom).
func DecodeWQE(b []byte) (*WQE, error) {
	w := &WQE{}
	if err := w.DecodeFrom(b); err != nil {
		return nil, err
	}
	return w, nil
}

// CQEOp distinguishes completion kinds.
type CQEOp uint8

// CQE kinds.
const (
	CQEReq  CQEOp = iota // send/write request completed (initiator side)
	CQERecv              // incoming send landed (target side)
)

// CQE status codes (the mlx5 syndrome byte, reduced to what the model can
// produce). A nonzero status marks an error completion: the hardware gave up
// on the WQE and software must not treat the transfer as delivered.
const (
	// CQEOK is a successful completion.
	CQEOK uint8 = 0
	// CQERnrRetryExc reports that the remote peer kept answering RNR NAK
	// past the QP's retry budget (IBV_WC_RNR_RETRY_EXC_ERR). The CQE
	// retires every outstanding WQE up to its counter, all failed.
	CQERnrRetryExc uint8 = 1
	// CQEFlushErr reports a WQE flushed without transmission because the
	// QP was already in error state when it executed
	// (IBV_WC_WR_FLUSH_ERR) — e.g. software posted between retry
	// exhaustion and polling the error CQE.
	CQEFlushErr uint8 = 2
	// CQERetryExc reports transport-retry exhaustion
	// (IBV_WC_RETRY_EXC_ERR): the QP spent its retry budget on ACK
	// timeouts and sequence-error NAKs without forward progress — the
	// peer, or every path to it, is effectively unreachable. Distinct
	// from CQERnrRetryExc, where the peer was reachable but never ready.
	CQERetryExc uint8 = 3
	// CQEFatalErr reports that the local device itself died
	// (IBV_WC_FATAL_ERR): the NIC crashed with this WQE outstanding, and
	// the driver synthesized the completion while failing the QP.
	CQEFatalErr uint8 = 4
)

// CQE is a decoded completion queue entry.
type CQE struct {
	Op CQEOp
	// WQECounter is the producer counter of the last completed WQE; with
	// unsignaled completions it retires every earlier WQE too (paper §6).
	WQECounter uint16
	QPN        uint32
	ByteCnt    uint32
	AmID       uint8
	// Status is CQEOK for successful completions; a nonzero value (e.g.
	// CQERnrRetryExc) marks an error completion.
	Status uint8
	// Payload is the inline-scattered data for small CQERecv completions.
	Payload []byte
	// Gen is the ring-pass generation owning the slot; consumers compare
	// it against the expected generation for validity (mlx5 owner bit,
	// widened to a byte so torn generations are detectable in tests).
	Gen uint8
}

// CQE layout: 0 op, 1 am id, 2 wqe counter(2), 4 qpn(4), 8 byte count(4),
// 12 status, 16.. inline scatter, 63 generation/owner byte.
const (
	cqeOffOp      = 0
	cqeOffAmID    = 1
	cqeOffCounter = 2
	cqeOffQPN     = 4
	cqeOffByteCnt = 8
	cqeOffStatus  = 12
	cqeOffScatter = 16
	cqeOffGen     = 63
)

// Encode serializes the CQE.
func (c *CQE) Encode() ([CQESize]byte, error) {
	var b [CQESize]byte
	if len(c.Payload) > ScatterMax {
		return b, fmt.Errorf("mlx: CQE scatter %d exceeds %d bytes", len(c.Payload), ScatterMax)
	}
	b[cqeOffOp] = byte(c.Op)
	b[cqeOffAmID] = c.AmID
	binary.LittleEndian.PutUint16(b[cqeOffCounter:], c.WQECounter)
	binary.LittleEndian.PutUint32(b[cqeOffQPN:], c.QPN)
	binary.LittleEndian.PutUint32(b[cqeOffByteCnt:], c.ByteCnt)
	b[cqeOffStatus] = c.Status
	copy(b[cqeOffScatter:], c.Payload)
	b[cqeOffGen] = c.Gen
	return b, nil
}

// DecodeFrom parses a 64-byte completion into c, overwriting every field.
// The inline-scattered payload (length min(ByteCnt, ScatterMax)) is copied
// into c's reusable Payload buffer, so a caller-owned scratch CQE decodes
// completions without allocating; the buffer's contents are only valid
// until the next DecodeFrom on the same CQE.
func (c *CQE) DecodeFrom(b []byte) error {
	if len(b) < CQESize {
		return fmt.Errorf("mlx: short CQE (%d bytes)", len(b))
	}
	c.Op = CQEOp(b[cqeOffOp])
	c.AmID = b[cqeOffAmID]
	c.WQECounter = binary.LittleEndian.Uint16(b[cqeOffCounter:])
	c.QPN = binary.LittleEndian.Uint32(b[cqeOffQPN:])
	c.ByteCnt = binary.LittleEndian.Uint32(b[cqeOffByteCnt:])
	c.Status = b[cqeOffStatus]
	c.Gen = b[cqeOffGen]
	if c.Op > CQERecv {
		return errors.New("mlx: bad CQE op")
	}
	n := int(c.ByteCnt)
	if n > ScatterMax {
		n = ScatterMax
	}
	c.Payload = append(c.Payload[:0], b[cqeOffScatter:cqeOffScatter+n]...)
	return nil
}

// DecodeCQE parses a 64-byte completion into a fresh CQE. The payload slice
// length is min(ByteCnt, ScatterMax).
func DecodeCQE(b []byte) (*CQE, error) {
	c := &CQE{}
	if err := c.DecodeFrom(b); err != nil {
		return nil, err
	}
	return c, nil
}

// Ring is a power-of-two circular buffer of fixed-size entries in host
// memory, shared between software and the NIC.
type Ring struct {
	Region    memsim.Region
	Depth     int
	EntrySize int
}

// maxRingDepth is the deepest ring NewRing builds. The uint16 counters
// wrap after 1<<16/depth passes over the ring, and Gen's owner bit
// alternates across that wrap only when the count is even.
const maxRingDepth = 1 << 15

// NewRing allocates a ring in mem. Depth must be a power of two of at most
// 1<<15.
func NewRing(mem *memsim.Memory, name string, depth, entrySize int) Ring {
	if depth <= 0 || depth&(depth-1) != 0 {
		panic(fmt.Sprintf("mlx: ring depth %d not a power of two", depth))
	}
	if depth > maxRingDepth {
		panic(fmt.Sprintf("mlx: ring depth %d above %d: the owner bit would repeat across the counter wrap", depth, maxRingDepth))
	}
	r := mem.Alloc(name, uint64(depth*entrySize), 64)
	return Ring{Region: r, Depth: depth, EntrySize: entrySize}
}

// Slot reports the ring slot for producer counter i.
func (r Ring) Slot(i uint16) int { return int(i) & (r.Depth - 1) }

// EntryAddr reports the host address of counter i's slot.
func (r Ring) EntryAddr(i uint16) uint64 {
	return r.Region.Base + uint64(r.Slot(i)*r.EntrySize)
}

// Gen reports the generation (ownership) value for counter i: the mlx5
// owner bit, the parity of the ring pass (the counter bit just above the
// slot index), plus one. Zero is never produced, so freshly zeroed memory
// is always invalid, and consecutive passes over a slot always carry
// different generations, across the uint16 counter's wrap too (see
// maxRingDepth).
func (r Ring) Gen(i uint16) uint8 {
	if int(i)&r.Depth != 0 {
		return 2
	}
	return 1
}
