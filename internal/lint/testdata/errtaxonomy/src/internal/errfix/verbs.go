package errfix

import "fmt"

// The format scan behind the %w check walks fmt's verb syntax: flags,
// widths and precisions consume no argument unless they are '*',
// "%%" consumes none, and an explicit [n] index moves the argument
// cursor. Each wrap below lands the error on its verb only if the
// scan counts the same way fmt does.

func wrapFlagged(x float64, err error) error {
	return fmt.Errorf("%+08.3f%% over: %w", x, err)
}

func wrapFlaggedDrops(x float64, err error) error {
	return fmt.Errorf("%-8.2f%% over: %v", x, err) // want `error formatted with %v drops the sentinel chain`
}

func wrapStarPrecision(prec int, x float64, err error) error {
	return fmt.Errorf("%.*f over: %w", prec, x, err)
}

func wrapStarPrecisionDrops(prec int, x float64, err error) error {
	return fmt.Errorf("%*.*f over: %s", 8, prec, x, err) // want `error formatted with %s drops the sentinel chain`
}

func wrapIndexed(n int, err error) error {
	return fmt.Errorf("%[2]d retries: %[1]w", err, n)
}

func wrapIndexedDrops(n int, err error) error {
	return fmt.Errorf("%[2]d retries: %[1]v", err, n) // want `error formatted with %v drops the sentinel chain`
}

// A format that ends inside a directive ends the scan; what it saw
// before still counts.
func wrapDanglingPercent(err error) error {
	return fmt.Errorf("%w at 100%", err)
}

func wrapDanglingIndex(err error) error {
	return fmt.Errorf("%w at %[2", err)
}
