package hot

import (
	"errors"
	"fmt"
)

// The cold-path exemptions beyond hot.go's coldError: anything inside
// a panic argument, a branch that panics, and a branch or case clause
// that returns an error may allocate. A branch or case that does
// neither is steady state, and so is a function body that merely ends
// in an error return.

//repro:hotpath
func panicArg(n int) int {
	if n < 0 {
		panic(fmt.Sprintf("negative count %d", n))
	}
	return n
}

//repro:hotpath
func panicBranch(n int) int {
	if n < 0 {
		msg := fmt.Sprintf("negative count %d", n)
		panic(msg)
	}
	return n
}

//repro:hotpath
func errorBranch(b []byte) (int, error) {
	if len(b) < 4 {
		msg := fmt.Sprintf("short frame: %d bytes", len(b))
		return 0, errors.New(msg)
	}
	return int(b[0]), nil
}

//repro:hotpath
func errorCase(kind byte, n int) (int, error) {
	switch kind {
	case 0:
		msg := fmt.Sprintf("unknown kind at %d", n)
		return 0, errors.New(msg)
	}
	return n, nil
}

//repro:hotpath
func warmBranch(n int) string {
	if n < 0 {
		return fmt.Sprintf("negative count %d", n) // want `fmt\.Sprintf allocates per event`
	}
	return ""
}

//repro:hotpath
func warmCase(kind byte, n int) string {
	switch kind {
	case 0:
		return fmt.Sprint(n) // want `fmt\.Sprint allocates per event`
	}
	return ""
}

//repro:hotpath
func bodyEndsInError(n int) error {
	msg := fmt.Sprint(n) // want `fmt\.Sprint allocates per event`
	return errors.New(msg)
}
