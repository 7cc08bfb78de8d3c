package roccom

import (
	"encoding/binary"
	"unsafe"

	"genxio/internal/hdf"
)

// littleEndian reports whether the host lays numbers out as the wire and
// RHDF do, so a typed array's memory already is its encoded form.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// view returns v's little-endian bytes: on a little-endian host the array's
// own memory, aliased (capacity-capped, so an append cannot run past it);
// elsewhere encode's converting copy.
func view[T float64 | float32 | int32](v []T, encode func([]T) []byte) []byte {
	if !littleEndian {
		return encode(v)
	}
	n := len(v) * int(unsafe.Sizeof(*new(T)))
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), n)
}

func f64View(v []float64) []byte { return view(v, hdf.F64Bytes) }
func f32View(v []float32) []byte { return view(v, hdf.F32Bytes) }
func i32View(v []int32) []byte   { return view(v, hdf.I32Bytes) }
