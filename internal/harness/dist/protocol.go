// Package dist turns the supervised experiment harness into a
// fault-tolerant distributed grid service: a Coordinator enumerates a
// registered experiment's plan into cells, grants time-bounded leases
// over a compact length-prefixed binary TCP protocol, and merges
// streamed per-cell results deterministically in enumeration order; a
// Worker holds the cell declarations (re-enumerated from the same
// registry) and executes leased cells under panic isolation and a
// watchdog. Scheduling is not the coordinator's: each job runs on a
// harness.Ledger, the state machine the local Runner drives too, and the
// coordinator only maps the network onto it — leases, heartbeats,
// eviction, at-most-once resolution by key. Worker crashes, hangs,
// partitions, duplicated deliveries and coordinator restarts must leave
// the merged grid byte-identical to an uninterrupted serial run.
package dist

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"jrs/internal/harness"
	"jrs/internal/workloads"
)

// ProtoVersion is the frame schema version. A peer speaking a different
// version is skew between builds; its frames are rejected at decode, so
// the connection resets instead of misinterpreting payload bytes.
const ProtoVersion = 1

// MaxFrame bounds one frame's wire size (length field + body). The
// guard runs before any allocation, so a torn or hostile length prefix
// degrades to a connection reset, never an OOM — the same "corrupt ⇒
// miss" posture as the ResultCache and journal.
const MaxFrame = 8 << 20

// frameHeader is the fixed prefix after the length field:
// 1 byte version, 1 byte type, 4 bytes CRC32 (IEEE) over version, type
// and payload.
const frameHeader = 1 + 1 + 4

// MsgType tags a frame's JSON payload.
type MsgType uint8

// Frame types. Workers and clients initiate; the coordinator only ever
// responds (heartbeats are fire-and-forget and get no response).
const (
	// MsgHello introduces a worker connection (worker → coordinator).
	MsgHello MsgType = 1 + iota
	// MsgLeaseReq asks for a cell lease (worker → coordinator).
	MsgLeaseReq
	// MsgLease grants a time-bounded lease (coordinator → worker).
	MsgLease
	// MsgWait answers a lease request when no cell is grantable right
	// now (coordinator → worker): back off and ask again.
	MsgWait
	// MsgResult streams a completed (or failed) cell back
	// (worker → coordinator).
	MsgResult
	// MsgAck answers a result: committed, duplicate, or retry
	// (coordinator → worker).
	MsgAck
	// MsgHeartbeat renews a held lease (worker → coordinator,
	// fire-and-forget).
	MsgHeartbeat
	// MsgSubmit submits a grid job (client → coordinator).
	MsgSubmit
	// MsgOutput answers a submit with the merged, rendered grid
	// (coordinator → client).
	MsgOutput
	// MsgRefused is the coordinator's last frame on a worker connection
	// it refuses (coordinator → worker): the worker stops instead of
	// re-dialing.
	MsgRefused
)

// String names the type for diagnostics.
func (t MsgType) String() string {
	switch t {
	case MsgHello:
		return "hello"
	case MsgLeaseReq:
		return "leasereq"
	case MsgLease:
		return "lease"
	case MsgWait:
		return "wait"
	case MsgResult:
		return "result"
	case MsgAck:
		return "ack"
	case MsgHeartbeat:
		return "heartbeat"
	case MsgSubmit:
		return "submit"
	case MsgOutput:
		return "output"
	case MsgRefused:
		return "refused"
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// ErrFrame tags every decode-side protocol violation. Callers treat any
// ErrFrame as fatal for the connection: reset and re-dial, never try to
// resynchronize inside a corrupted stream.
var ErrFrame = errors.New("dist: bad frame")

// ErrRefused tags a worker's refusal by the coordinator (a MsgRefused
// frame): re-dialing would be refused again, so Worker.Run returns it.
var ErrRefused = errors.New("dist: refused by coordinator")

// EncodeFrame renders one frame: a 4-byte big-endian length of the body
// (version + type + CRC + payload), then the body. The CRC covers the
// version, type and payload bytes, so any torn or bit-flipped frame is
// detected before its JSON is touched.
func EncodeFrame(t MsgType, payload []byte) ([]byte, error) {
	body := frameHeader + len(payload)
	if body > MaxFrame {
		return nil, fmt.Errorf("%w: payload %d exceeds max frame %d", ErrFrame, len(payload), MaxFrame)
	}
	buf := make([]byte, 4+body)
	binary.BigEndian.PutUint32(buf, uint32(body))
	buf[4] = ProtoVersion
	buf[5] = byte(t)
	copy(buf[4+frameHeader:], payload)
	crc := crc32.NewIEEE()
	crc.Write(buf[4:6])
	crc.Write(payload)
	binary.BigEndian.PutUint32(buf[6:], crc.Sum32())
	return buf, nil
}

// WriteFrame encodes and writes one frame.
func WriteFrame(w io.Writer, t MsgType, msg any) error {
	payload, err := json.Marshal(msg)
	if err != nil {
		return fmt.Errorf("dist: encode %s: %w", t, err)
	}
	frame, err := EncodeFrame(t, payload)
	if err != nil {
		return err
	}
	_, err = w.Write(frame)
	return err
}

// ReadFrame reads and validates one frame, returning its type and
// payload. Any violation — truncated stream, oversized or undersized
// length, version skew, CRC mismatch — returns an error wrapping
// ErrFrame; the caller must reset the connection.
func ReadFrame(r io.Reader) (MsgType, []byte, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return 0, nil, io.EOF // clean close between frames
		}
		return 0, nil, fmt.Errorf("%w: truncated length: %v", ErrFrame, err)
	}
	body := binary.BigEndian.Uint32(lenBuf[:])
	if body < frameHeader {
		return 0, nil, fmt.Errorf("%w: body length %d below header size", ErrFrame, body)
	}
	if body > MaxFrame {
		return 0, nil, fmt.Errorf("%w: body length %d exceeds max frame %d", ErrFrame, body, MaxFrame)
	}
	buf := make([]byte, body)
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, nil, fmt.Errorf("%w: truncated body: %v", ErrFrame, err)
	}
	if buf[0] != ProtoVersion {
		return 0, nil, fmt.Errorf("%w: version %d, want %d", ErrFrame, buf[0], ProtoVersion)
	}
	t := MsgType(buf[1])
	wantCRC := binary.BigEndian.Uint32(buf[2:6])
	crc := crc32.NewIEEE()
	crc.Write(buf[0:2])
	crc.Write(buf[frameHeader:])
	if crc.Sum32() != wantCRC {
		return 0, nil, fmt.Errorf("%w: CRC mismatch on %s frame", ErrFrame, t)
	}
	return t, buf[frameHeader:], nil
}

// DecodeInto unmarshals a frame payload, tagging malformed JSON as a
// frame error (connection-fatal) like any other protocol violation.
func DecodeInto(payload []byte, msg any) error {
	if err := json.Unmarshal(payload, msg); err != nil {
		return fmt.Errorf("%w: payload: %v", ErrFrame, err)
	}
	return nil
}

// OptionsSpec is the wire form of harness.Options: workloads travel by
// name so the spec is serializable and both sides resolve it against
// their own registry. Analysis-only knobs (Races, Checks) don't affect
// experiment cells and stay local.
type OptionsSpec struct {
	Scale     int      `json:"scale,omitempty"`
	Quick     bool     `json:"quick,omitempty"`
	Workloads []string `json:"workloads,omitempty"`
	CheckPipe bool     `json:"checkPipe,omitempty"`
}

// SpecOf converts local options to their wire form.
func SpecOf(o harness.Options) OptionsSpec {
	s := OptionsSpec{Scale: o.Scale, Quick: o.Quick, CheckPipe: o.CheckPipe}
	for _, w := range o.Workloads {
		s.Workloads = append(s.Workloads, w.Name)
	}
	return s
}

// Options resolves the wire form against the workload registry.
func (s OptionsSpec) Options() (harness.Options, error) {
	o := harness.Options{Scale: s.Scale, Quick: s.Quick, CheckPipe: s.CheckPipe}
	for _, name := range s.Workloads {
		w, ok := workloads.ByName(name)
		if !ok {
			return o, fmt.Errorf("dist: unknown workload %q", name)
		}
		o.Workloads = append(o.Workloads, w)
	}
	return o, nil
}

// GridSpec names a grid: which registered experiments, under which
// options. Both the coordinator and every worker enumerate it through
// the same registry, so a cell key resolves to the same cell
// declaration everywhere.
type GridSpec struct {
	Experiments []string    `json:"experiments"`
	Opts        OptionsSpec `json:"opts"`
}

// Canonical returns a stable identity string for plan caching.
func (g GridSpec) Canonical() string {
	b, _ := json.Marshal(g)
	return string(b)
}

// Hello introduces a worker connection. Build is the worker's
// atomicfile.Build: the coordinator refuses (Refused, then close) a
// connection whose build differs from its own, and grants leases only
// on a connection whose Hello it accepted, so every committed cell was
// simulated by the coordinator's code.
type Hello struct {
	Worker string `json:"worker"`
	Build  string `json:"build"`
}

// LeaseReq asks for work. Seq is the per-connection request sequence
// number; responses echo it so a worker can discard stale responses
// (e.g. the answer to a chaos-duplicated earlier request).
type LeaseReq struct {
	Seq    uint64 `json:"seq"`
	Worker string `json:"worker"`
}

// Lease grants one cell for a bounded time. The worker must deliver a
// result (or heartbeat) before TTLMillis elapses or the coordinator
// revokes the lease and re-runs the cell elsewhere.
type Lease struct {
	Seq       uint64          `json:"seq"`
	LeaseID   uint64          `json:"leaseID"`
	Key       harness.CellKey `json:"key"`
	Attempt   int             `json:"attempt"`
	TTLMillis int64           `json:"ttlMillis"`
	Grid      GridSpec        `json:"grid"`
}

// Wait tells a worker to back off: nothing grantable right now (no job
// submitted, every pending cell leased, or the grid is draining).
type Wait struct {
	Seq    uint64 `json:"seq"`
	Millis int64  `json:"millis"`
}

// Result delivers a completed or failed cell. Exactly one of Payload
// and ErrMsg is meaningful; Cause carries the worker-side
// harness.Classify label so the coordinator applies the shared retry
// policy without reconstructing the error value.
type Result struct {
	Seq     uint64          `json:"seq"`
	Worker  string          `json:"worker"`
	LeaseID uint64          `json:"leaseID"`
	Key     harness.CellKey `json:"key"`
	Payload json.RawMessage `json:"payload,omitempty"`
	ErrMsg  string          `json:"errMsg,omitempty"`
	Cause   string          `json:"cause,omitempty"`
}

// Ack statuses.
const (
	// AckCommitted: the result was merged and journaled — the cell is
	// done for every future delivery.
	AckCommitted = "committed"
	// AckDuplicate: the cell was already committed (a re-delivered or
	// duplicated result); the payload was discarded without
	// double-counting.
	AckDuplicate = "duplicate"
	// AckRetry: the failure was recorded; the cell will be re-leased.
	AckRetry = "retry"
	// AckFailed: the failure exhausted the cell's retry budget (or was
	// deterministic); the cell is failed for this job.
	AckFailed = "failed"
	// AckStale: the lease is unknown (an old coordinator's lease after
	// a restart, or an evicted worker's); the result was ignored unless
	// the cell key matched a live group.
	AckStale = "stale"
)

// Ack answers a Result.
type Ack struct {
	Seq    uint64 `json:"seq"`
	Status string `json:"status"`
}

// Refused tells a worker why the coordinator closes its connection. It
// answers whatever the worker sent last, so it carries no Seq.
type Refused struct {
	Reason string `json:"reason"`
}

// Heartbeat renews every lease the worker holds. Fire-and-forget: no
// response, so it can interleave with the request/response cycle on the
// same connection.
type Heartbeat struct {
	Worker string `json:"worker"`
}

// SubmitReq asks the coordinator to run a grid and stream back the
// merged report.
type SubmitReq struct {
	Seq  uint64   `json:"seq"`
	Grid GridSpec `json:"grid"`
}

// Output answers a Submit once the grid drains: the experiment renders
// (byte-identical to a local serial run), the run report (keep-going
// mode), the process exit code the client should propagate, and the
// error message for failed jobs.
type Output struct {
	Seq      uint64 `json:"seq"`
	Output   string `json:"output"`
	Report   string `json:"report,omitempty"`
	ExitCode int    `json:"exitCode"`
	ErrMsg   string `json:"errMsg,omitempty"`
}
