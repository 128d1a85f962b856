package server

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"testing"
	"testing/iotest"
)

// TestReadBodyReservation: a declared length buys at most the first
// reservation, and a body longer than that still reads whole.
func TestReadBodyReservation(t *testing.T) {
	got, err := ReadBody(bytes.NewReader([]byte("0123456789")), 64<<20)
	if err != nil || string(got) != "0123456789" {
		t.Fatalf("10-byte body under a 64 MiB declaration = %q, %v", got, err)
	}
	if c := cap(got); c > firstReserve+1 {
		t.Errorf("64 MiB declaration reserved %d bytes, want at most %d", c, firstReserve+1)
	}

	big := bytes.Repeat([]byte("p cnf 3 1\n1 -2 3 0\n"), 3<<20/19+1)
	got, err = ReadBody(iotest.HalfReader(bytes.NewReader(big)), int64(len(big)))
	if err != nil || !bytes.Equal(got, big) {
		t.Fatalf("%d-byte body declared exactly: %d bytes back, err %v", len(big), len(got), err)
	}

	// A body as long as declared fills the one reservation.
	got, err = ReadBody(bytes.NewReader(big[:1000]), 1000)
	if err != nil || !bytes.Equal(got, big[:1000]) || cap(got) != 1001 {
		t.Errorf("1000-byte body declared exactly: %d bytes, cap %d, err %v; want cap 1001",
			len(got), cap(got), err)
	}
}

// errFuzzRead ends a fuzzed body with an error other than EOF.
var errFuzzRead = errors.New("connection reset mid-body")

// FuzzReadBodyMatchesReadAll checks ReadBody against io.ReadAll and
// DecodeUpload against io.ReadAll of DecodeBody's reader. The first
// check reads arbitrary bytes under declared lengths exact, shorter,
// longer, 0, unknown and 64 MiB, through whole, one-byte, half and
// data-with-EOF reads and a read that fails after the data: the bytes,
// their nil-ness and the error must match. The second decodes the gzip of
// the bytes under a body cap small enough to refuse them and a large one.
func FuzzReadBodyMatchesReadAll(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte("p cnf 3 2\n1 -2 0\n2 3 0\n"))
	f.Add(bytes.Repeat([]byte("1 2 0\n"), 400))
	readers := []struct {
		name string
		wrap func(io.Reader) io.Reader
	}{
		{"whole", func(r io.Reader) io.Reader { return r }},
		{"one-byte", iotest.OneByteReader},
		{"half", iotest.HalfReader},
		{"data-err", iotest.DataErrReader},
		{"fails", func(r io.Reader) io.Reader { return io.MultiReader(r, iotest.ErrReader(errFuzzRead)) }},
	}
	var gzBuf bytes.Buffer
	gw := gzip.NewWriter(&gzBuf)
	f.Fuzz(func(t *testing.T, body []byte) {
		n := int64(len(body))
		for _, size := range []int64{n, n / 2, n + 1, 0, -1, 64 << 20} {
			for _, rd := range readers {
				want, werr := io.ReadAll(rd.wrap(bytes.NewReader(body)))
				got, gerr := ReadBody(rd.wrap(bytes.NewReader(body)), size)
				if !bytes.Equal(got, want) || (got == nil) != (want == nil) || gerr != werr {
					t.Fatalf("%s reads, declared %d: ReadBody = %q (nil %v), %v; io.ReadAll = %q (nil %v), %v",
						rd.name, size, got, got == nil, gerr, want, want == nil, werr)
				}
			}
		}

		gzBuf.Reset()
		gw.Reset(&gzBuf)
		gw.Write(body)
		gw.Close()
		gz := gzBuf.Bytes()
		for _, max := range []int64{512, 1 << 20} {
			src, err := DecodeBody(bytes.NewReader(gz), "gzip", max)
			if err != nil {
				t.Fatalf("DecodeBody refused a gzip header: %v", err)
			}
			want, werr := io.ReadAll(src)
			got, gerr := DecodeUpload(gz, "gzip", max)
			switch {
			case werr == nil:
				if gerr != nil || !bytes.Equal(got, want) {
					t.Fatalf("max %d: DecodeUpload = %d bytes, %v; the stream decodes to %d bytes",
						max, len(got), gerr, len(want))
				}
			case !errors.Is(gerr, werr) || got != nil:
				t.Fatalf("max %d: DecodeUpload = %d bytes, %v; the stream fails with %v",
					max, len(got), gerr, werr)
			}
		}
	})
}
