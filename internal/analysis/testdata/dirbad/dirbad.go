// Package dirbad seeds malformed bsvet directives: unknown rule names,
// missing reasons and unknown directive names must be rejected, not
// silently ignored.
// The expectations use the harness's offset form (want:-1) because a
// `// want` trailing a directive line would be swallowed as the
// directive's reason text.
package dirbad

import "time"

// UnknownRule names a rule that does not exist: the directive is
// rejected and the finding it meant to hide still fires.
func UnknownRule() time.Time {
	//bsvet:allow nosuchrule the rule name does not exist
	// want:-1 "names unknown rule \"nosuchrule\""
	return time.Now() // want "time.Now depends on the host wall clock"
}

// MissingReason omits the mandatory justification.
func MissingReason() time.Time {
	//bsvet:allow determinism
	// want:-1 "bsvet:allow determinism needs a reason"
	return time.Now() // want "time.Now depends on the host wall clock"
}

// Empty has neither rule nor reason.
func Empty() time.Time {
	//bsvet:allow
	// want:-1 "needs a rule name and a reason"
	return time.Now() // want "time.Now depends on the host wall clock"
}

// Retired carries the directive of a deleted rule, which is reported
// rather than silently ignored.
// want:+2 "unknown directive //bsvet:hotpath \\(known: allow, guards\\)"
//
//bsvet:hotpath
func Retired() {}
