//go:build !amd64 || noasm

package vec

// asmLevel stays "go": no assembly kernels are linked in on non-amd64
// targets or under the `noasm` build tag, and the dispatched entry
// points keep their Go loops.
var asmLevel = "go"
