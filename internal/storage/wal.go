package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/catalog"
	"repro/internal/datum"
	"repro/internal/obsv"
)

// WAL format. A data directory holds numbered segment files
// (wal-000001.log, wal-000002.log, ...), each starting with an 8-byte
// magic. Records are length-prefixed and checksummed:
//
//	[4B little-endian payload length][4B CRC-32 (Castagnoli) of payload][payload]
//
// The payload's first byte is the record type:
//
//	recSchema — a CREATE TABLE: the full table metadata, so reopening an
//	  empty catalog reconstructs the schema before any data replays.
//	recCommit — one committed write batch: commit timestamp plus its ops
//	  in order (inserts carry full rows, deletes carry rowids).
//
// Recovery invariants: records are appended and fsynced before a commit is
// applied or acknowledged, so every acknowledged commit is on disk in
// full. A crash can leave a torn record at the tail of the last segment
// (short header, short payload, or CRC mismatch); recovery truncates the
// segment at the last valid record and discards the tail — by
// write-before-ack, a torn record can only belong to an unacknowledged
// commit. Replaying all segments in order therefore reproduces exactly the
// committed-transaction state.
const (
	walMagic = "CBQTWAL1"

	recSchema byte = 1
	recCommit byte = 2

	// walSegMaxBytes is the rotation threshold: a record that would push a
	// segment past this size goes to a fresh segment instead. Segments cap
	// the recovery unit and keep file sizes bounded.
	walSegMaxBytes = 4 << 20
)

var walCRC = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed is returned by Commit and CreateTable on a durable database
// after Close.
var ErrClosed = errors.New("storage: database closed")

// errTornRecord marks an incomplete or corrupt tail record during replay.
var errTornRecord = errors.New("storage: torn WAL record")

// walEnc is an append-only payload encoder over a byte slice.
type walEnc struct{ buf []byte }

func (e *walEnc) b(v byte)     { e.buf = append(e.buf, v) }
func (e *walEnc) u64(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *walEnc) i64(v int64)  { e.buf = binary.AppendVarint(e.buf, v) }
func (e *walEnc) str(s string) {
	e.u64(uint64(len(s)))
	e.buf = append(e.buf, s...)
}
func (e *walEnc) ints(v []int) {
	e.u64(uint64(len(v)))
	for _, x := range v {
		e.i64(int64(x))
	}
}

func (e *walEnc) datum(d datum.Datum) {
	if d.IsNull() {
		e.b(byte(datum.KNull))
		return
	}
	e.b(byte(d.Kind()))
	switch d.Kind() {
	case datum.KInt:
		e.i64(d.Int())
	case datum.KFloat:
		e.u64(math.Float64bits(d.Float()))
	case datum.KString:
		e.str(d.Str())
	case datum.KBool:
		if d.Bool() {
			e.b(1)
		} else {
			e.b(0)
		}
	}
}

// walDec decodes a payload; any malformation surfaces as errTornRecord so
// the replayer treats it like a torn tail.
type walDec struct{ buf []byte }

func (d *walDec) b() (byte, error) {
	if len(d.buf) == 0 {
		return 0, errTornRecord
	}
	v := d.buf[0]
	d.buf = d.buf[1:]
	return v, nil
}

func (d *walDec) u64() (uint64, error) {
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		return 0, errTornRecord
	}
	d.buf = d.buf[n:]
	return v, nil
}

func (d *walDec) i64() (int64, error) {
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		return 0, errTornRecord
	}
	d.buf = d.buf[n:]
	return v, nil
}

func (d *walDec) str() (string, error) {
	n, err := d.u64()
	if err != nil {
		return "", err
	}
	if uint64(len(d.buf)) < n {
		return "", errTornRecord
	}
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	return s, nil
}

func (d *walDec) ints() ([]int, error) {
	n, err := d.u64()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(d.buf)) { // each element is at least one byte
		return nil, errTornRecord
	}
	out := make([]int, n)
	for i := range out {
		v, err := d.i64()
		if err != nil {
			return nil, err
		}
		out[i] = int(v)
	}
	return out, nil
}

func (d *walDec) datum() (datum.Datum, error) {
	k, err := d.b()
	if err != nil {
		return datum.Null, err
	}
	switch datum.Kind(k) {
	case datum.KNull:
		return datum.Null, nil
	case datum.KInt:
		v, err := d.i64()
		return datum.NewInt(v), err
	case datum.KFloat:
		v, err := d.u64()
		return datum.NewFloat(math.Float64frombits(v)), err
	case datum.KString:
		v, err := d.str()
		return datum.NewString(v), err
	case datum.KBool:
		v, err := d.b()
		return datum.NewBool(v != 0), err
	}
	return datum.Null, errTornRecord
}

// encodeSchema renders a recSchema payload for a table definition.
func encodeSchema(meta *catalog.Table) []byte {
	e := &walEnc{}
	e.b(recSchema)
	e.str(meta.Name)
	e.u64(uint64(len(meta.Cols)))
	for _, c := range meta.Cols {
		e.str(c.Name)
		e.b(byte(c.Type))
		if c.Nullable {
			e.b(1)
		} else {
			e.b(0)
		}
	}
	e.ints(meta.PrimaryKey)
	e.u64(uint64(len(meta.UniqueKeys)))
	for _, u := range meta.UniqueKeys {
		e.ints(u)
	}
	e.u64(uint64(len(meta.ForeignKeys)))
	for _, fk := range meta.ForeignKeys {
		e.ints(fk.Cols)
		e.str(fk.RefTable)
		e.ints(fk.RefCols)
	}
	e.u64(uint64(len(meta.Indexes)))
	for _, ix := range meta.Indexes {
		e.str(ix.Name)
		e.ints(ix.Cols)
		if ix.Unique {
			e.b(1)
		} else {
			e.b(0)
		}
	}
	return e.buf
}

func decodeSchema(d *walDec) (*catalog.Table, error) {
	meta := &catalog.Table{}
	var err error
	if meta.Name, err = d.str(); err != nil {
		return nil, err
	}
	ncols, err := d.u64()
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < ncols; i++ {
		var c catalog.Column
		if c.Name, err = d.str(); err != nil {
			return nil, err
		}
		k, err := d.b()
		if err != nil {
			return nil, err
		}
		c.Type = datum.Kind(k)
		nn, err := d.b()
		if err != nil {
			return nil, err
		}
		c.Nullable = nn != 0
		meta.Cols = append(meta.Cols, c)
	}
	if meta.PrimaryKey, err = d.ints(); err != nil {
		return nil, err
	}
	nuk, err := d.u64()
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < nuk; i++ {
		u, err := d.ints()
		if err != nil {
			return nil, err
		}
		meta.UniqueKeys = append(meta.UniqueKeys, u)
	}
	nfk, err := d.u64()
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < nfk; i++ {
		var fk catalog.ForeignKey
		if fk.Cols, err = d.ints(); err != nil {
			return nil, err
		}
		if fk.RefTable, err = d.str(); err != nil {
			return nil, err
		}
		if fk.RefCols, err = d.ints(); err != nil {
			return nil, err
		}
		meta.ForeignKeys = append(meta.ForeignKeys, fk)
	}
	nix, err := d.u64()
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < nix; i++ {
		ix := &catalog.Index{}
		if ix.Name, err = d.str(); err != nil {
			return nil, err
		}
		if ix.Cols, err = d.ints(); err != nil {
			return nil, err
		}
		un, err := d.b()
		if err != nil {
			return nil, err
		}
		ix.Unique = un != 0
		meta.Indexes = append(meta.Indexes, ix)
	}
	return meta, nil
}

// encodeCommit renders a recCommit payload for a validated batch.
func encodeCommit(commitTS uint64, ops []op) []byte {
	e := &walEnc{}
	e.b(recCommit)
	e.u64(commitTS)
	e.u64(uint64(len(ops)))
	for _, o := range ops {
		e.str(o.table)
		if o.row != nil {
			e.b(0) // insert
			e.u64(uint64(len(o.row)))
			for _, v := range o.row {
				e.datum(v)
			}
		} else {
			e.b(1) // delete
			e.u64(uint64(o.rid))
		}
	}
	return e.buf
}

func decodeCommit(d *walDec) (uint64, []op, error) {
	ts, err := d.u64()
	if err != nil {
		return 0, nil, err
	}
	n, err := d.u64()
	if err != nil {
		return 0, nil, err
	}
	ops := make([]op, 0, n)
	for i := uint64(0); i < n; i++ {
		var o op
		if o.table, err = d.str(); err != nil {
			return 0, nil, err
		}
		kind, err := d.b()
		if err != nil {
			return 0, nil, err
		}
		switch kind {
		case 0:
			nc, err := d.u64()
			if err != nil {
				return 0, nil, err
			}
			if nc > uint64(len(d.buf)) { // each datum is at least one byte
				return 0, nil, errTornRecord
			}
			o.row = make(Row, nc)
			for c := range o.row {
				if o.row[c], err = d.datum(); err != nil {
					return 0, nil, err
				}
			}
		case 1:
			rid, err := d.u64()
			if err != nil {
				return 0, nil, err
			}
			o.rid = int32(rid)
		default:
			return 0, nil, errTornRecord
		}
		ops = append(ops, o)
	}
	return ts, ops, nil
}

// walWriter appends records to the current segment, rotating at the size
// threshold. Not safe for concurrent use; the DB serializes through its
// commit lock.
type walWriter struct {
	dir     string
	seg     *os.File // nil after close
	segNum  int
	segSize int64
	metrics walMetrics
	// replayed and torn count the commit records and torn tails replayed
	// at open, before any registry is attached; Metrics adds them.
	replayed, torn int64
}

// walMetrics are the storage.wal.* counters; all nil-safe.
type walMetrics struct {
	appends  *obsv.Counter // storage.wal.appends
	fsyncs   *obsv.Counter // storage.wal.fsyncs
	bytes    *obsv.Counter // storage.wal.bytes
	segments *obsv.Counter // storage.wal.segments
	replayed *obsv.Counter // storage.wal.replayed_commits
	torn     *obsv.Counter // storage.wal.torn_tails
}

func newWalMetrics(reg *obsv.Registry) walMetrics {
	if reg == nil {
		return walMetrics{}
	}
	return walMetrics{
		appends:  reg.Counter("storage.wal.appends"),
		fsyncs:   reg.Counter("storage.wal.fsyncs"),
		bytes:    reg.Counter("storage.wal.bytes"),
		segments: reg.Counter("storage.wal.segments"),
		replayed: reg.Counter("storage.wal.replayed_commits"),
		torn:     reg.Counter("storage.wal.torn_tails"),
	}
}

func segName(n int) string { return fmt.Sprintf("wal-%06d.log", n) }

func walSegments(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []string
	for _, e := range ents {
		name := e.Name()
		if strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log") {
			segs = append(segs, name)
		}
	}
	sort.Strings(segs)
	return segs, nil
}

func openWalWriter(dir string, lastSeg int) (*walWriter, error) {
	w := &walWriter{dir: dir, segNum: lastSeg}
	if lastSeg == 0 {
		if err := w.rotate(); err != nil {
			return nil, err
		}
		return w, nil
	}
	path := filepath.Join(dir, segName(lastSeg))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		//lint:allow errdrop best-effort cleanup on the stat-failure path; the stat error is the one the caller must see
		f.Close()
		return nil, err
	}
	w.seg = f
	w.segSize = st.Size()
	return w, nil
}

// rotate closes the current segment and starts the next one.
func (w *walWriter) rotate() error {
	if w.seg != nil {
		if err := w.seg.Close(); err != nil {
			return err
		}
	}
	w.segNum++
	path := filepath.Join(w.dir, segName(w.segNum))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write([]byte(walMagic)); err != nil {
		//lint:allow errdrop best-effort cleanup of a segment we are abandoning; the write error already fails the rotation
		f.Close()
		return err
	}
	w.seg = f
	w.segSize = int64(len(walMagic))
	w.metrics.segments.Inc()
	return nil
}

// append writes one record and fsyncs it (write-before-ack durability).
func (w *walWriter) append(payload []byte) error {
	if w.seg == nil {
		return ErrClosed
	}
	recSize := int64(8 + len(payload))
	if w.segSize+recSize > walSegMaxBytes && w.segSize > int64(len(walMagic)) {
		if err := w.rotate(); err != nil {
			return err
		}
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, walCRC))
	if _, err := w.seg.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.seg.Write(payload); err != nil {
		return err
	}
	if err := w.seg.Sync(); err != nil {
		return err
	}
	w.segSize += recSize
	w.metrics.appends.Inc()
	w.metrics.fsyncs.Inc()
	w.metrics.bytes.Add(recSize)
	return nil
}

func (w *walWriter) close() error {
	if w.seg == nil {
		return nil
	}
	err := w.seg.Close()
	w.seg = nil
	return err
}

// replaySegment reads every valid record of one segment, invoking apply
// per payload. It returns the byte offset of the first invalid record (or
// file size if all records are valid) so the caller can truncate a torn
// tail, and whether a torn tail was found.
func replaySegment(path string, apply func(payload []byte) error) (validEnd int64, torn bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, false, err
	}
	if len(data) < len(walMagic) || string(data[:len(walMagic)]) != walMagic {
		return 0, false, fmt.Errorf("storage: %s: bad WAL magic", filepath.Base(path))
	}
	off := int64(len(walMagic))
	for {
		rest := data[off:]
		if len(rest) == 0 {
			return off, false, nil
		}
		if len(rest) < 8 {
			return off, true, nil
		}
		plen := int64(binary.LittleEndian.Uint32(rest[0:4]))
		crc := binary.LittleEndian.Uint32(rest[4:8])
		if int64(len(rest)) < 8+plen {
			return off, true, nil
		}
		payload := rest[8 : 8+plen]
		if crc32.Checksum(payload, walCRC) != crc {
			return off, true, nil
		}
		if err := apply(payload); err != nil {
			if errors.Is(err, errTornRecord) {
				return off, true, nil
			}
			return off, false, err
		}
		off += 8 + plen
	}
}

// replayWAL replays all segments in dir into db: schema records re-create
// tables, commit records re-apply batches in commit order. The last
// segment may be truncated at a torn tail. It returns a writer that
// continues appending to the last segment (or starts the first).
func replayWAL(dir string, db *DB) (*walWriter, error) {
	segs, err := walSegments(dir)
	if err != nil {
		return nil, err
	}
	var replayed, torn int64
	apply := func(payload []byte) error {
		d := &walDec{buf: payload}
		typ, err := d.b()
		if err != nil {
			return err
		}
		switch typ {
		case recSchema:
			meta, err := decodeSchema(d)
			if err != nil {
				return err
			}
			if _, err := db.createTable(meta); err != nil {
				return fmt.Errorf("storage: replay schema: %w", err)
			}
		case recCommit:
			ts, ops, err := decodeCommit(d)
			if err != nil {
				return err
			}
			db.applyOps(ts, ops)
			db.committed.Store(ts)
			db.Catalog.BumpDataVersion()
			replayed++
		default:
			return errTornRecord
		}
		return nil
	}
	lastSeg := 0
	for i, name := range segs {
		path := filepath.Join(dir, name)
		validEnd, tornTail, err := replaySegment(path, apply)
		if err != nil {
			return nil, err
		}
		if tornTail {
			if i != len(segs)-1 {
				return nil, fmt.Errorf("storage: %s: torn record in non-final segment", name)
			}
			torn++
			if err := os.Truncate(path, validEnd); err != nil {
				return nil, err
			}
		}
		var n int
		if _, err := fmt.Sscanf(name, "wal-%06d.log", &n); err == nil && n > lastSeg {
			lastSeg = n
		}
	}
	w, err := openWalWriter(dir, lastSeg)
	if err != nil {
		return nil, err
	}
	w.replayed, w.torn = replayed, torn
	return w, nil
}
