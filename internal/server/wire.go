// Package server implements the concurrent SQL serving layer: a session
// manager over a length-prefixed TCP wire protocol, backed by the CBQT
// optimizer and the shared plan cache (package plancache). Each connection
// is one session with its own search strategy and optimization budget; all
// sessions share the database, the catalog version, and the plan cache, so
// a parameterized query optimized by one session executes from the cache
// in every other — the amortization the paper's shared cursor cache
// provides (§3). Prepared statements populate the cache; a one-shot text
// (execute with SQL and no statement id) only reads it: it runs a plan a
// prepared statement of its text and bucket vector cached, and on a miss
// optimizes — reusing its template's decisions from the CBQT decision
// store — without caching a plan that no later lookup would hit.
package server

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/datum"
)

// MaxFrameBytes bounds a single wire frame (requests and responses) and a
// single result page; a peer announcing a larger one is malformed and the
// connection is dropped.
const MaxFrameBytes = 64 << 20

// Wire verbs. One request frame carries one verb; the server answers every
// request with exactly one response frame.
const (
	VerbHello     = "hello"      // open the session, set per-session options
	VerbPrepare   = "prepare"    // parse + bind; returns a statement id and its parameter names
	VerbBind      = "bind"       // set parameter values on a prepared statement
	VerbExecute   = "execute"    // optimize (through the plan cache) and run; opens a cursor, optionally returning its first page
	VerbFetch     = "fetch"      // page rows from the statement's open cursor
	VerbCloseStmt = "close_stmt" // drop a prepared statement and its cursor
	VerbAnalyze   = "analyze"    // re-ANALYZE a table (or all), bumping the stats version
	VerbMetrics   = "metrics"    // snapshot the server registry + session counters
	VerbPing      = "ping"       // heartbeat: resets the idle timer, answered immediately
	VerbClose     = "close"      // end the session
)

// Request is one client→server message.
type Request struct {
	Verb string `json:"verb"`
	// SQL is the query text (prepare) or — for execute — optional one-shot
	// text prepared, executed and closed implicitly when Stmt is zero. A
	// one-shot reads the shared plan cache but adds no plan to it.
	SQL string `json:"sql,omitempty"`
	// Stmt identifies a prepared statement (bind/execute/fetch/close_stmt).
	Stmt int64 `json:"stmt,omitempty"`
	// Binds carries parameter values for bind or execute. Named values
	// match parameters case-insensitively; unnamed values bind positionally
	// in parameter-discovery order.
	Binds []BindValue `json:"binds,omitempty"`
	// MaxRows bounds one fetch batch (<= 0: server default). On execute it
	// asks for the cursor's first page on the execute response itself
	// (<= 0: none — the response carries no rows and every page is fetched).
	MaxRows int `json:"max_rows,omitempty"`
	// Table names the ANALYZE target ("" = every table).
	Table string `json:"table,omitempty"`
	// Options sets per-session optimizer options (hello only).
	Options *SessionOptions `json:"options,omitempty"`
	// DeadlineMS is the request's remaining time budget in milliseconds
	// (execute only; 0 = none). The deadline rides into the optimizer's
	// budget tracker (degrading the search) and the executor's context
	// (aborting the run), so a query that can no longer make its deadline
	// stops burning optimizer states and returns a typed DEADLINE error.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// SessionOptions selects the optimizer configuration for one session.
type SessionOptions struct {
	// Strategy is the state-space search strategy name: auto, exhaustive,
	// iterative, linear, two-pass ("" = server default).
	Strategy string `json:"strategy,omitempty"`
	// TimeoutMS, MaxStates and MaxMemBytes populate the session's
	// cbqt.Budget (zero = unbounded).
	TimeoutMS   int64 `json:"timeout_ms,omitempty"`
	MaxStates   int   `json:"max_states,omitempty"`
	MaxMemBytes int64 `json:"max_mem,omitempty"`
	// Check overrides the server's static-checker setting for this session
	// (nil = server default). Checked sessions never share cached plans
	// with unchecked ones: a violation must fail the statement that
	// requested checking, not be masked by a plan cached without it.
	Check *bool `json:"check,omitempty"`
}

// BindValue is one parameter value on the wire.
type BindValue struct {
	Name  string    `json:"name,omitempty"`
	Value WireDatum `json:"value"`
}

// Response is one server→client message.
type Response struct {
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
	// Code classifies a failed request (see the Code* constants): clients
	// retry OVERLOADED after backoff and treat everything else as final.
	Code string `json:"code,omitempty"`
	// Stmt echoes (or assigns, on prepare) the statement id.
	Stmt int64 `json:"stmt,omitempty"`
	// Params lists the statement's parameter names in ordinal order.
	Params []string `json:"params,omitempty"`
	// SQL is the transformed query text (execute).
	SQL string `json:"sql,omitempty"`
	// Cached reports whether execute reused a shared cached plan instead
	// of running the optimizer.
	Cached bool `json:"cached,omitempty"`
	// RowCount is the total size of the cursor opened by execute.
	RowCount int `json:"row_count,omitempty"`
	// Affected is the row count of a mutation statement (execute of
	// INSERT/UPDATE/DELETE; such statements open an empty cursor).
	Affected int `json:"affected,omitempty"`
	// Rows is a page as JSON values. cbqtd never sends it: it stays for
	// benchmark/replay.go, which frames its re-enacted fetches with it and
	// EncodeRow, and goes with that replay (ROADMAP item 3(b)).
	Rows [][]WireDatum `json:"rows,omitempty"`
	// Done marks cursor exhaustion.
	Done bool `json:"done,omitempty"`
	// Page is the byte length of the result page that follows this frame
	// on the stream, outside the frame's own length: one fetch batch or, on
	// an execute that asked for one, the cursor's first page, in the
	// columnar encoding of page.go. Zero means the reply carries no rows.
	Page int `json:"page,omitempty"`
	// Metrics is the registry snapshot (metrics verb).
	Metrics map[string]int64 `json:"metrics,omitempty"`
	// Session carries the per-session counters (metrics verb).
	Session *SessionStats `json:"session,omitempty"`
}

// SessionStats are the per-session work counters reported by the metrics
// verb and logged when the session closes.
type SessionStats struct {
	ID        int64 `json:"id"`
	Prepared  int64 `json:"prepared"`
	Executes  int64 `json:"executes"`
	CacheHits int64 `json:"cache_hits"`
	Fetches   int64 `json:"fetches"`
	RowsSent  int64 `json:"rows_sent"`
	// Shed counts this session's requests rejected by admission control;
	// Deadlines counts its requests failed by an expired deadline.
	Shed      int64 `json:"shed,omitempty"`
	Deadlines int64 `json:"deadlines,omitempty"`
}

// WireDatum is the JSON encoding of one SQL value. Kind selects the value
// field, keeping int64 exact (JSON numbers round-trip through float64).
type WireDatum struct {
	Kind string  `json:"k"`
	I    int64   `json:"i,omitempty"`
	F    float64 `json:"f,omitempty"`
	S    string  `json:"s,omitempty"`
	B    bool    `json:"b,omitempty"`
}

// EncodeDatum converts a datum to its wire form.
func EncodeDatum(d datum.Datum) WireDatum {
	switch d.Kind() {
	case datum.KInt:
		return WireDatum{Kind: "int", I: d.Int()}
	case datum.KFloat:
		return WireDatum{Kind: "float", F: d.Float()}
	case datum.KString:
		return WireDatum{Kind: "string", S: d.Str()}
	case datum.KBool:
		return WireDatum{Kind: "bool", B: d.Bool()}
	default:
		return WireDatum{Kind: "null"}
	}
}

// Decode converts the wire form back to a datum.
func (w WireDatum) Decode() (datum.Datum, error) {
	switch w.Kind {
	case "int":
		return datum.NewInt(w.I), nil
	case "float":
		return datum.NewFloat(w.F), nil
	case "string":
		return datum.NewString(w.S), nil
	case "bool":
		return datum.NewBool(w.B), nil
	case "null", "":
		return datum.Null, nil
	default:
		return datum.Null, fmt.Errorf("server: unknown datum kind %q", w.Kind)
	}
}

// EncodeRow converts one result row to its wire form.
func EncodeRow(row []datum.Datum) []WireDatum {
	out := make([]WireDatum, len(row))
	for i, d := range row {
		out[i] = EncodeDatum(d)
	}
	return out
}

// marshalFrame encodes msg as one frame's payload.
func marshalFrame(msg any) ([]byte, error) {
	payload, err := json.Marshal(msg)
	if err != nil {
		return nil, fmt.Errorf("server: encode frame: %w", err)
	}
	if len(payload) > MaxFrameBytes {
		return nil, fmt.Errorf("server: frame of %d bytes exceeds limit %d", len(payload), MaxFrameBytes)
	}
	return payload, nil
}

// appendFrame appends msg as one frame — a 4-byte big-endian payload length
// followed by the JSON payload — to a buffer the connection keeps between
// frames. dst is returned unchanged on error.
func appendFrame(dst []byte, msg any) ([]byte, error) {
	payload, err := marshalFrame(msg)
	if err != nil {
		return dst, err
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	return append(dst, payload...), nil
}

// WriteFrame sends one length-prefixed JSON message: a 4-byte big-endian
// payload length followed by the payload.
func WriteFrame(w io.Writer, msg any) error {
	payload, err := marshalFrame(msg)
	if err != nil {
		return err
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err = w.Write(payload)
	return err
}

// ReadFrame receives one length-prefixed JSON message into msg.
func ReadFrame(r io.Reader, msg any) error {
	var buf []byte
	return readFrame(r, &buf, msg)
}

// readFrame is ReadFrame through a buffer the connection keeps between
// frames.
func readFrame(r io.Reader, buf *[]byte, msg any) error {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return err // io.EOF on clean close
	}
	payload, err := readBody(r, buf, int(binary.BigEndian.Uint32(hdr[:])), "frame")
	if err != nil {
		return err
	}
	if err := json.Unmarshal(payload, msg); err != nil {
		return fmt.Errorf("server: decode frame: %w", err)
	}
	return nil
}

const (
	// readChunk is the first read of a body into an empty buffer; each
	// later read may be as large as everything that has arrived so far.
	readChunk = 4 << 10
	// maxKeptBuffer is the largest per-connection buffer kept for the next
	// frame; one oversized frame or page does not pin its size for the
	// life of the connection.
	maxKeptBuffer = 1 << 20
)

// readBody reads the n bytes a peer announced (a frame payload or a result
// page) into *buf and returns them; they are valid until the next read
// through the same buffer. The buffer grows only as bytes arrive — an
// announcement alone allocates nothing — and at most doubles per read, so a
// peer holds at most about twice what it has actually sent.
func readBody(r io.Reader, buf *[]byte, n int, what string) ([]byte, error) {
	if n < 0 || n > MaxFrameBytes {
		return nil, fmt.Errorf("server: peer announced %d-byte %s, limit %d", n, what, MaxFrameBytes)
	}
	b := (*buf)[:0]
	for len(b) < n {
		if len(b) == cap(b) {
			grown := make([]byte, len(b), min(n, max(readChunk, 2*cap(b))))
			copy(grown, b)
			b = grown
		}
		m, err := io.ReadFull(r, b[len(b):min(n, cap(b))])
		b = b[:len(b)+m]
		if err != nil {
			return nil, fmt.Errorf("server: short %s: %w", what, err)
		}
	}
	if cap(b) <= maxKeptBuffer {
		*buf = b
	} else {
		*buf = nil
	}
	return b, nil
}
