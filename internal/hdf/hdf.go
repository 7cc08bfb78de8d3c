// Package hdf implements RHDF, a self-describing, binary-portable,
// hierarchical scientific data format in the spirit of HDF4/HDF5 as used by
// the paper: a file holds named, typed, n-dimensional datasets, each with
// typed attributes, organized by slash-separated path names (the paper's
// data blocks become neighboring datasets under a common prefix).
//
// The format is real — files written here are read back, inspected by
// cmd/rocketeer, and used for restart. For the performance studies, a
// CostProfile models the *management overhead* of the library that matters
// in the paper: HDF4's per-dataset bookkeeping cost grows linearly with the
// number of datasets already in the file (so access cost over a whole file
// is quadratic), while HDF5's indexed layout grows only logarithmically.
// This is the behaviour behind Table 1's restart asymmetry and the
// Rochdf-vs-Rocpanda file-count trade-off. The Null profile charges
// nothing and is used when running for real.
package hdf

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// Magic identifies an RHDF file.
const Magic = "RHDF"

// Version is the RHDF format version, the one layout writers write and
// readers accept: every directory entry carries a flags byte (deflate
// compression) and the CRC32C of the dataset's stored bytes, which every
// read checks.
const Version = 3

const headerSize = 24 // magic(4) version(4) dirOffset(8) numSets(4) reserved(4)

// HeaderSize returns the fixed RHDF header length in bytes. Corruption
// tooling uses it to aim injected damage at payload or directory bytes
// rather than the header.
func HeaderSize() int64 { return headerSize }

// ErrChecksum is wrapped in errors reported when stored bytes do not match
// their recorded CRC32C — the file committed but has since been damaged.
var ErrChecksum = errors.New("hdf: checksum mismatch")

// crcTable is the Castagnoli polynomial table shared by writers, readers
// and the snapshot manifest layer.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC32C of b, the integrity check used throughout
// the RHDF format and the snapshot manifests.
func Checksum(b []byte) uint32 { return crc32.Checksum(b, crcTable) }

// DType enumerates dataset element types.
type DType uint8

// Element types.
const (
	F64 DType = iota + 1
	F32
	I64
	I32
	U8
)

// Size returns the element size in bytes.
func (t DType) Size() int {
	switch t {
	case F64, I64:
		return 8
	case F32, I32:
		return 4
	case U8:
		return 1
	}
	return 0
}

// String returns the conventional name of the type.
func (t DType) String() string {
	switch t {
	case F64:
		return "float64"
	case F32:
		return "float32"
	case I64:
		return "int64"
	case I32:
		return "int32"
	case U8:
		return "uint8"
	}
	return fmt.Sprintf("DType(%d)", uint8(t))
}

// Attr is a typed attribute attached to a dataset, stored inline in the
// file directory.
type Attr struct {
	Name string
	Type DType
	Data []byte
}

// StrAttr returns a string-valued attribute (stored as U8 bytes).
func StrAttr(name, value string) Attr {
	return Attr{Name: name, Type: U8, Data: []byte(value)}
}

// F64Attr returns a float64-array attribute.
func F64Attr(name string, values ...float64) Attr {
	return Attr{Name: name, Type: F64, Data: F64Bytes(values)}
}

// I32Attr returns an int32-array attribute.
func I32Attr(name string, values ...int32) Attr {
	return Attr{Name: name, Type: I32, Data: I32Bytes(values)}
}

// Str interprets the attribute payload as a string.
func (a Attr) Str() string { return string(a.Data) }

// F64s interprets the attribute payload as float64 values.
func (a Attr) F64s() []float64 { return BytesF64(a.Data) }

// I32s interprets the attribute payload as int32 values.
func (a Attr) I32s() []int32 { return BytesI32(a.Data) }

// Dataset flag bits.
const (
	flagDeflate = 1 << 0
	flagHasCRC  = 1 << 1 // set on every entry: one without it is refused
)

// Dataset describes one named array in a file.
type Dataset struct {
	Name  string
	Type  DType
	Dims  []int64
	Attrs []Attr

	offset int64  // file offset of the stored data
	length int64  // stored data length in bytes (compressed size if deflated)
	crc    uint32 // CRC32C of the stored bytes
	flags  uint8
}

// Compressed reports whether the dataset is stored deflate-compressed.
func (d *Dataset) Compressed() bool { return d.flags&flagDeflate != 0 }

// CRC returns the recorded CRC32C of the stored bytes.
func (d *Dataset) CRC() uint32 { return d.crc }

// Extent returns the file offset and stored byte length of the dataset's
// payload — the direct-read coordinates recorded by the block catalog, so
// restart can fetch the bytes without re-parsing the file's directory.
func (d *Dataset) Extent() (offset, length int64) { return d.offset, d.length }

// Len returns the number of elements (product of Dims).
func (d *Dataset) Len() int64 {
	n := int64(1)
	for _, dim := range d.Dims {
		n *= dim
	}
	return n
}

// NumBytes returns the stored size in bytes (the compressed size for
// deflated datasets; the logical size is Len() * Type.Size()).
func (d *Dataset) NumBytes() int64 { return d.length }

// Attr returns the named attribute and whether it exists.
func (d *Dataset) Attr(name string) (Attr, bool) {
	for _, a := range d.Attrs {
		if a.Name == name {
			return a, true
		}
	}
	return Attr{}, false
}

// Conversion helpers between typed slices and little-endian bytes. These
// are used throughout the I/O stack (datasets, attributes, wire encoding of
// data blocks).

// F64Bytes encodes float64 values as little-endian bytes.
func F64Bytes(v []float64) []byte {
	out := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(x))
	}
	return out
}

// BytesF64 decodes little-endian bytes into float64 values.
func BytesF64(b []byte) []float64 {
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

// F32Bytes encodes float32 values as little-endian bytes.
func F32Bytes(v []float32) []byte {
	out := make([]byte, 4*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint32(out[4*i:], math.Float32bits(x))
	}
	return out
}

// BytesF32 decodes little-endian bytes into float32 values.
func BytesF32(b []byte) []float32 {
	out := make([]float32, len(b)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}

// I32Bytes encodes int32 values as little-endian bytes.
func I32Bytes(v []int32) []byte {
	out := make([]byte, 4*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint32(out[4*i:], uint32(x))
	}
	return out
}

// BytesI32 decodes little-endian bytes into int32 values.
func BytesI32(b []byte) []int32 {
	out := make([]int32, len(b)/4)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}

// I64Bytes encodes int64 values as little-endian bytes.
func I64Bytes(v []int64) []byte {
	out := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(out[8*i:], uint64(x))
	}
	return out
}

// BytesI64 decodes little-endian bytes into int64 values.
func BytesI64(b []byte) []int64 {
	out := make([]int64, len(b)/8)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}
