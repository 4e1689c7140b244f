// Command vet stands in for cmd/bsvet: its package lists configure the
// analyzers, and one entry names a package the module no longer has.
package main

import "fmt"

var checked = []string{
	"staleconf/cmd/vet",
	"staleconf/internal/gone", // want "configuration names package \"staleconf/internal/gone\", which the module does not contain" "configuration names package \"staleconf/internal/gone\""
}

func main() { fmt.Println(checked) }
