package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"testing"
	"unicode/utf8"

	"repro/internal/datum"
)

// sameDatum is equality as the wire must preserve it: floats by their bits,
// so NaN equals itself and -0.0 differs from 0.0.
func sameDatum(a, b datum.Datum) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case datum.KInt:
		return a.Int() == b.Int()
	case datum.KFloat:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case datum.KString:
		return a.Str() == b.Str()
	case datum.KBool:
		return a.Bool() == b.Bool()
	}
	return true
}

func samePage(a, b [][]datum.Datum) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d rows vs %d", len(a), len(b))
	}
	for r := range a {
		if len(a[r]) != len(b[r]) {
			return fmt.Errorf("row %d: %d columns vs %d", r, len(a[r]), len(b[r]))
		}
		for c := range a[r] {
			if !sameDatum(a[r][c], b[r][c]) {
				return fmt.Errorf("row %d col %d: %v (%s) vs %v (%s)", r, c, a[r][c], a[r][c].Kind(), b[r][c], b[r][c].Kind())
			}
		}
	}
	return nil
}

// jsonPage takes rows through the JSON row encoding: the reference the
// columnar page is held to.
func jsonPage(rows [][]datum.Datum) ([][]datum.Datum, error) {
	wire := make([][]WireDatum, len(rows))
	for i, r := range rows {
		wire[i] = EncodeRow(r)
	}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, &Response{OK: true, Rows: wire}); err != nil {
		return nil, err
	}
	var resp Response
	if err := ReadFrame(&buf, &resp); err != nil {
		return nil, err
	}
	return decodeRows(resp.Rows)
}

// decodeRows decodes JSON rows, the reference side of jsonPage and
// BenchmarkPageCodec.
func decodeRows(rows [][]WireDatum) ([][]datum.Datum, error) {
	out := make([][]datum.Datum, len(rows))
	for i, wr := range rows {
		out[i] = make([]datum.Datum, len(wr))
		for j, wd := range wr {
			d, err := wd.Decode()
			if err != nil {
				return nil, fmt.Errorf("row %d col %d: %w", i, j, err)
			}
			out[i][j] = d
		}
	}
	return out, nil
}

// jsonCarries reports whether the JSON row encoding can carry d exactly: it
// cannot carry a non-finite float at all, drops the sign of -0.0 (omitempty)
// and rewrites bytes that are not UTF-8.
func jsonCarries(d datum.Datum) bool {
	switch d.Kind() {
	case datum.KFloat:
		f := d.Float()
		return !math.IsNaN(f) && !math.IsInf(f, 0) && !(f == 0 && math.Signbit(f))
	case datum.KString:
		return utf8.ValidString(d.Str())
	}
	return true
}

// fuzzPage builds a page from fuzz bytes: the first two choose its shape,
// the rest its values, with the edge cases each given their own selector so
// the fuzzer reaches them in a byte.
func fuzzPage(data []byte) [][]datum.Datum {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	nrows, ncols := int(next())%20, int(next())%6
	colKind := make([]byte, ncols) // 0..4 a fixed kind, 5 all NULL, 6.. any kind per value
	for c := range colKind {
		colKind[c] = next() % 8
	}
	ints := []int64{0, 1, -1, math.MinInt64, math.MaxInt64, 1 << 40}
	floats := []float64{0, math.Copysign(0, -1), 1.5, math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64}
	strs := []string{"", "a", "héllo", "\xff\xfe", "a\x00b", "19980101"}
	rows := make([][]datum.Datum, nrows)
	for r := range rows {
		rows[r] = make([]datum.Datum, ncols)
		for c := range rows[r] {
			sel := next()
			kind := colKind[c]
			if kind >= 6 {
				kind = sel % 5
			} else if sel%4 == 0 {
				kind = 0 // NULL in any position of a typed column
			}
			v := int(next())
			switch kind {
			case 1:
				rows[r][c] = datum.NewInt(ints[v%len(ints)] + int64(v/len(ints)))
			case 2:
				rows[r][c] = datum.NewFloat(floats[v%len(floats)])
			case 3:
				rows[r][c] = datum.NewString(strs[v%len(strs)])
			case 4:
				rows[r][c] = datum.NewBool(v%2 == 1)
			}
		}
	}
	return rows
}

func FuzzPageRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 3})                               // 0 rows
	f.Add([]byte{3, 0})                               // 0 columns
	f.Add([]byte{9, 5, 1, 2, 3, 4, 5, 1, 3, 2, 7})    // one column of each kind, one all NULL
	f.Add([]byte{17, 3, 6, 7, 1, 1, 4, 2, 3, 3, 3})   // mixed-kind columns, 17 rows: bitmaps of 3 bytes
	f.Add([]byte{8, 2, 2, 3, 1, 3, 1, 3, 5, 4, 6, 1}) // NaN, -0.0, ±Inf, invalid UTF-8
	f.Fuzz(func(t *testing.T, data []byte) {
		rows := fuzzPage(data)
		page, err := appendPage([]byte("prefix"), rows)
		if len(rows) > 0 && len(rows[0]) == 0 {
			if err == nil {
				t.Fatal("rows without columns encoded; the decoder could not bound them")
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(page, []byte("prefix")) {
			t.Fatal("appendPage overwrote its destination")
		}
		page = page[len("prefix"):]
		got, err := decodePage(page)
		if err != nil {
			t.Fatalf("decode of an encoded page: %v", err)
		}
		if err := samePage(rows, got); err != nil {
			t.Fatalf("columnar round trip: %v", err)
		}
		for i := range page {
			page[i] = 0xAA // nothing decoded may alias the buffer it came from
		}
		if err := samePage(rows, got); err != nil {
			t.Fatalf("decoded page aliases its input: %v", err)
		}
		for _, r := range rows {
			for _, d := range r {
				if !jsonCarries(d) {
					return
				}
			}
		}
		ref, err := jsonPage(rows)
		if err != nil {
			t.Fatal(err)
		}
		if err := samePage(ref, got); err != nil {
			t.Fatalf("columnar page differs from the JSON page: %v", err)
		}
	})
}

func FuzzPageDecode(f *testing.F) {
	for _, seed := range [][]byte{{}, {3, 0}, {9, 5, 1, 2, 3, 4, 5, 1, 3, 2, 7}, {17, 3, 6, 7, 1}} {
		page, err := appendPage(nil, fuzzPage(seed))
		if err == nil {
			f.Add(page)
		}
	}
	f.Add(binary.AppendUvarint(binary.AppendUvarint(nil, 1<<40), 1<<20)) // a shape far larger than its bytes
	f.Add([]byte{2, 1, tagMixed | tagHasNulls, 0})
	f.Add([]byte{1, 1, tagString, 200})
	f.Fuzz(func(t *testing.T, data []byte) {
		rows, err := decodePage(data)
		if err != nil {
			if !errors.Is(err, ErrBadPage) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		// Whatever decoded cost at least a bit a value, so the allocation
		// it caused is bounded by the input's length.
		if len(rows) > 0 && len(rows)*len(rows[0]) > 8*len(data) {
			t.Fatalf("%d×%d values from %d bytes", len(rows), len(rows[0]), len(data))
		}
		again, err := appendPage(nil, rows)
		if err != nil {
			t.Fatalf("decoded page does not re-encode: %v", err)
		}
		back, err := decodePage(again)
		if err != nil {
			t.Fatal(err)
		}
		if err := samePage(rows, back); err != nil {
			t.Fatal(err)
		}
	})
}

// TestDecodePageBoundsAllocation: a page that announces a huge shape in a
// few bytes is refused before anything is allocated for it.
func TestDecodePageBoundsAllocation(t *testing.T) {
	page := binary.AppendUvarint(binary.AppendUvarint(nil, 1<<28), 4)
	page = append(page, tagMixed, 0, 0, 0)
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := decodePage(page); !errors.Is(err, ErrBadPage) {
			t.Fatalf("err = %v, want ErrBadPage", err)
		}
	})
	if allocs > 4 { // the error value and its message
		t.Fatalf("refusing the page took %.0f allocations", allocs)
	}
}

// benchPage is shaped like a page of fetch_wide's sales scan: 1024 rows of
// three ints, a float and a two-letter string.
func benchPage() [][]datum.Datum {
	rows := make([][]datum.Datum, 1024)
	for i := range rows {
		rows[i] = []datum.Datum{
			datum.NewInt(int64(100000 + i)),
			datum.NewInt(int64(i % 4000)),
			datum.NewInt(int64(i % 97)),
			datum.NewFloat(float64(i%1750) / 2),
			datum.NewString([]string{"US", "DE", "JP", "BR"}[i%4]),
		}
	}
	return rows
}

// BenchmarkPageCodec is the per-layer evidence behind the columnar page:
// one 1024×5 page encoded, framed and decoded again, per encoding. B/row is
// bytes on the wire; B/op and allocs/op cover both sides.
func BenchmarkPageCodec(b *testing.B) {
	rows := benchPage()
	report := func(b *testing.B, wire int) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(rows)), "ns/row")
		b.ReportMetric(float64(wire)/float64(len(rows)), "B/row")
	}
	b.Run("json", func(b *testing.B) {
		b.ReportAllocs()
		var buf bytes.Buffer
		wire := 0
		for i := 0; i < b.N; i++ {
			buf.Reset()
			page := make([][]WireDatum, 0, len(rows))
			for _, r := range rows {
				page = append(page, EncodeRow(r))
			}
			if err := WriteFrame(&buf, &Response{OK: true, Rows: page}); err != nil {
				b.Fatal(err)
			}
			wire = buf.Len()
			var resp Response
			if err := ReadFrame(&buf, &resp); err != nil {
				b.Fatal(err)
			}
			if got, err := decodeRows(resp.Rows); err != nil || len(got) != len(rows) {
				b.Fatal(err)
			}
		}
		report(b, wire)
	})
	b.Run("binary", func(b *testing.B) {
		b.ReportAllocs()
		var page, out, in []byte
		wire := 0
		for i := 0; i < b.N; i++ {
			var err error
			if page, err = appendPage(page[:0], rows); err != nil {
				b.Fatal(err)
			}
			if out, err = appendFrame(out[:0], &Response{OK: true, Page: len(page)}); err != nil {
				b.Fatal(err)
			}
			out = append(out, page...)
			wire = len(out)
			r := bytes.NewReader(out)
			var resp Response
			if err := readFrame(r, &in, &resp); err != nil {
				b.Fatal(err)
			}
			body, err := readBody(r, &in, resp.Page, "page")
			if err != nil {
				b.Fatal(err)
			}
			if got, err := decodePage(body); err != nil || len(got) != len(rows) {
				b.Fatal(err)
			}
		}
		report(b, wire)
	})
}
