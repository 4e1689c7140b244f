// Command tool is the module's only binary: everything it reaches
// counts as used.
package main

import (
	"fmt"

	"deadmod/internal/lib"
)

func main() {
	fmt.Println(lib.ForMain(), lib.T{}, lib.Measure(lib.Box{}))
	helper()
}

func helper() {}

func orphan() {} // want "main.orphan is used by no non-test code"
