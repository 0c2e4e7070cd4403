package dataset

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
)

// The fvecs format is an interchange format of the ann-benchmarks suite (and
// of the original SIFT1M distribution): each vector is stored as a
// little-endian int32 dimension followed by that many little-endian float32
// components.

// WriteFvecs writes d to w in fvecs format.
func WriteFvecs(w io.Writer, d *Dataset) error {
	bw := bufio.NewWriter(w)
	var hdr [4]byte
	for i := 0; i < d.N; i++ {
		binary.LittleEndian.PutUint32(hdr[:], uint32(d.Dim))
		if _, err := bw.Write(hdr[:]); err != nil {
			return fmt.Errorf("dataset: writing fvecs header: %w", err)
		}
		for _, v := range d.Row(i) {
			binary.LittleEndian.PutUint32(hdr[:], math.Float32bits(v))
			if _, err := bw.Write(hdr[:]); err != nil {
				return fmt.Errorf("dataset: writing fvecs value: %w", err)
			}
		}
	}
	return bw.Flush()
}

// ReadFvecs reads an entire fvecs stream. All vectors must share one
// dimension.
func ReadFvecs(r io.Reader) (*Dataset, error) {
	br := bufio.NewReader(r)
	var vecs []float32
	dim, n := 0, 0
	var hdr [4]byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			if err == io.EOF {
				break
			}
			return nil, fmt.Errorf("dataset: reading fvecs header: %w", err)
		}
		d := int(int32(binary.LittleEndian.Uint32(hdr[:])))
		if d <= 0 || d > 1<<20 {
			return nil, fmt.Errorf("dataset: implausible fvecs dimension %d", d)
		}
		if dim == 0 {
			dim = d
		} else if d != dim {
			return nil, fmt.Errorf("dataset: inconsistent fvecs dimensions %d vs %d", d, dim)
		}
		buf := make([]byte, 4*d)
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, fmt.Errorf("dataset: truncated fvecs vector: %w", err)
		}
		for j := 0; j < d; j++ {
			vecs = append(vecs, math.Float32frombits(binary.LittleEndian.Uint32(buf[4*j:])))
		}
		n++
	}
	if n == 0 {
		return nil, fmt.Errorf("dataset: empty fvecs stream")
	}
	return &Dataset{N: n, Dim: dim, Data: vecs}, nil
}

// LoadFvecsFile reads an fvecs file from disk.
func LoadFvecsFile(path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadFvecs(f)
}

// SaveFvecsFile writes d to an fvecs file on disk.
func SaveFvecsFile(path string, d *Dataset) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteFvecs(f, d); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
