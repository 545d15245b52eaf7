package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/datum"
)

// The columnar result page is the whole row encoding between a session and
// its peer: every reply that carries rows carries them as one page. A page is
// self-describing — it names its own shape and every column's kind — so it
// needs no per-cursor state on either side:
//
//	page   = uvarint(rows) uvarint(cols) column{cols}     rows == 0 ⇔ cols == 0
//	column = tag [nulls] run
//	tag    = one byte: the column's kind (tagInt..tagMixed), | tagHasNulls
//	         when a null bitmap follows (never on a mixed column)
//	nulls  = ceil(rows/8) bytes; bit r%8 (least significant first) of byte
//	         r/8 is set when row r is NULL
//	run    = int:    one zig-zag varint per non-NULL row
//	         float:  the 8 little-endian bytes of the IEEE-754 bits per
//	                 non-NULL row (NaN, ±Inf and -0.0 survive)
//	         string: uvarint(length) + that many bytes per non-NULL row
//	                 (any bytes; not required to be UTF-8)
//	         bool:   ceil(rows/8) bytes; bit r is set when row r is TRUE
//	         mixed:  per row one kind byte (tagNull..tagBool) and then the
//	                 value as its typed run would carry it, a bool as one byte
//
// A column is mixed when its non-NULL values are not all one kind, and also
// when it has no non-NULL value at all. Every column therefore costs at
// least one bit per row, which is what lets the decoder bound its one
// rows×cols allocation by the bytes it was actually handed.
const (
	tagNull byte = iota // mixed runs only
	tagInt
	tagFloat
	tagString
	tagBool
	tagMixed // column tags only

	tagHasNulls byte = 0x80
)

// ErrBadPage is wrapped by every decodePage failure.
var ErrBadPage = errors.New("server: malformed result page")

func tagOf(k datum.Kind) byte {
	switch k {
	case datum.KInt:
		return tagInt
	case datum.KFloat:
		return tagFloat
	case datum.KString:
		return tagString
	case datum.KBool:
		return tagBool
	}
	return tagNull
}

// appendPage appends the columnar encoding of rows to dst. Rows must all
// have the same, non-zero width; dst is returned unchanged on error.
func appendPage[R ~[]datum.Datum](dst []byte, rows []R) ([]byte, error) {
	cols := 0
	if len(rows) > 0 {
		if cols = len(rows[0]); cols == 0 {
			return dst, errors.New("server: result rows have no columns")
		}
	}
	for i, r := range rows {
		if len(r) != cols {
			return dst, fmt.Errorf("server: result row %d has %d columns, row 0 has %d", i, len(r), cols)
		}
	}
	dst = binary.AppendUvarint(dst, uint64(len(rows)))
	dst = binary.AppendUvarint(dst, uint64(cols))
	bitmap := (len(rows) + 7) / 8
	for c := 0; c < cols; c++ {
		tag, nulls := tagNull, false
		for _, r := range rows {
			switch t := tagOf(r[c].Kind()); {
			case t == tagNull:
				nulls = true
			case tag == tagNull:
				tag = t
			case tag != t:
				tag = tagMixed
			}
		}
		if tag == tagNull || tag == tagMixed {
			dst = append(dst, tagMixed)
			for _, r := range rows {
				dst = append(dst, tagOf(r[c].Kind()))
				dst = appendValue(dst, r[c])
			}
			continue
		}
		if nulls {
			dst = append(dst, tag|tagHasNulls)
			dst = appendBits(dst, bitmap, rows, c, datum.Datum.IsNull)
		} else {
			dst = append(dst, tag)
		}
		if tag == tagBool {
			dst = appendBits(dst, bitmap, rows, c, func(d datum.Datum) bool { return !d.IsNull() && d.Bool() })
			continue
		}
		for _, r := range rows {
			dst = appendValue(dst, r[c])
		}
	}
	return dst, nil
}

// appendBits appends an n-byte bitmap with bit r set where set(rows[r][c]).
func appendBits[R ~[]datum.Datum](dst []byte, n int, rows []R, c int, set func(datum.Datum) bool) []byte {
	start := len(dst)
	dst = append(dst, make([]byte, n)...)
	for r, row := range rows {
		if set(row[c]) {
			dst[start+r>>3] |= 1 << (r & 7)
		}
	}
	return dst
}

// appendValue appends one value as its typed run carries it; NULL is no
// bytes at all (the bitmap or the mixed run's kind byte already said so).
func appendValue(dst []byte, d datum.Datum) []byte {
	switch d.Kind() {
	case datum.KInt:
		return binary.AppendVarint(dst, d.Int())
	case datum.KFloat:
		return binary.LittleEndian.AppendUint64(dst, math.Float64bits(d.Float()))
	case datum.KString:
		s := d.Str()
		return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
	case datum.KBool:
		if d.Bool() {
			return append(dst, 1)
		}
		return append(dst, 0)
	}
	return dst
}

// decodePage decodes one columnar page into rows that share one backing
// array, with every string a substring of one copy of the page: two slices
// and at most one string are allocated however many rows the page holds,
// and nothing returned aliases data. Keeping one row or one string of a
// page alive therefore keeps that page's values alive with it.
func decodePage(data []byte) ([][]datum.Datum, error) {
	p := pageReader{data: data}
	rows, err := p.uvarint()
	if err != nil {
		return nil, err
	}
	cols, err := p.uvarint()
	if err != nil {
		return nil, err
	}
	if (rows == 0) != (cols == 0) {
		return nil, fmt.Errorf("%w: %d rows of %d columns", ErrBadPage, rows, cols)
	}
	// Each column is a tag byte plus at least a bit per row, so a page of
	// this shape cannot be shorter than this; checked before the shape is
	// trusted with an allocation.
	rest := uint64(len(data) - p.off)
	if cols > rest || (cols > 0 && rows > 8*rest/cols) {
		return nil, fmt.Errorf("%w: %d rows of %d columns announced in %d bytes", ErrBadPage, rows, cols, len(data))
	}
	n, w := int(rows), int(cols)
	vals := make([]datum.Datum, n*w)
	for c := 0; c < w; c++ {
		if err := p.column(vals[c:], n, w); err != nil {
			return nil, fmt.Errorf("%w (column %d)", err, c)
		}
	}
	if p.off != len(data) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadPage, len(data)-p.off)
	}
	out := make([][]datum.Datum, n)
	for r := range out {
		out[r] = vals[r*w : (r+1)*w : (r+1)*w]
	}
	return out, nil
}

// pageReader is decodePage's position in the page.
type pageReader struct {
	data []byte
	off  int
	text string // string(data), made when the first string value is met
}

func (p *pageReader) truncated(what string) error {
	return fmt.Errorf("%w: truncated %s at byte %d of %d", ErrBadPage, what, p.off, len(p.data))
}

func (p *pageReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(p.data[p.off:])
	if n <= 0 {
		return 0, p.truncated("varint")
	}
	p.off += n
	return v, nil
}

func (p *pageReader) take(n int) ([]byte, error) {
	if n > len(p.data)-p.off {
		return nil, p.truncated("run")
	}
	b := p.data[p.off : p.off+n]
	p.off += n
	return b, nil
}

// column decodes one column into col[0], col[stride], ... (rows values).
func (p *pageReader) column(col []datum.Datum, rows, stride int) error {
	hdr, err := p.take(1)
	if err != nil {
		return err
	}
	tag := hdr[0] &^ tagHasNulls
	var nulls []byte
	if hdr[0]&tagHasNulls != 0 {
		if tag == tagMixed {
			return fmt.Errorf("%w: null bitmap on a mixed column", ErrBadPage)
		}
		if nulls, err = p.take((rows + 7) / 8); err != nil {
			return err
		}
	}
	isNull := func(r int) bool { return nulls != nil && nulls[r>>3]&(1<<(r&7)) != 0 }
	switch tag {
	case tagInt, tagFloat, tagString:
		for r := 0; r < rows; r++ {
			if isNull(r) {
				continue
			}
			if col[r*stride], err = p.value(tag); err != nil {
				return err
			}
		}
	case tagBool:
		bits, err := p.take((rows + 7) / 8)
		if err != nil {
			return err
		}
		for r := 0; r < rows; r++ {
			if !isNull(r) {
				col[r*stride] = datum.NewBool(bits[r>>3]&(1<<(r&7)) != 0)
			}
		}
	case tagMixed:
		for r := 0; r < rows; r++ {
			kind, err := p.take(1)
			if err != nil {
				return err
			}
			if col[r*stride], err = p.value(kind[0]); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("%w: unknown column kind %d", ErrBadPage, tag)
	}
	return nil
}

// value decodes what appendValue wrote for a value of the given kind.
func (p *pageReader) value(kind byte) (datum.Datum, error) {
	switch kind {
	case tagNull:
		return datum.Null, nil
	case tagInt:
		v, n := binary.Varint(p.data[p.off:])
		if n <= 0 {
			return datum.Null, p.truncated("int")
		}
		p.off += n
		return datum.NewInt(v), nil
	case tagFloat:
		b, err := p.take(8)
		if err != nil {
			return datum.Null, err
		}
		return datum.NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(b))), nil
	case tagString:
		n, err := p.uvarint()
		if err != nil {
			return datum.Null, err
		}
		if n > uint64(len(p.data)-p.off) {
			return datum.Null, p.truncated("string")
		}
		if p.text == "" {
			p.text = string(p.data)
		}
		s := p.text[p.off : p.off+int(n)]
		p.off += int(n)
		return datum.NewString(s), nil
	case tagBool:
		b, err := p.take(1)
		if err != nil {
			return datum.Null, err
		}
		return datum.NewBool(b[0] != 0), nil
	}
	return datum.Null, fmt.Errorf("%w: unknown value kind %d", ErrBadPage, kind)
}
