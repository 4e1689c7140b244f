package orphan // want "package deadmod/internal/orphan is imported by no non-test code"

// Exported identifiers of a package nothing imports are reported once,
// at the package clause, not one by one.
func Exported() {}
