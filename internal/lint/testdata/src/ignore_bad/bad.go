// Package ignore_bad holds malformed //simlint:ignore directives;
// lint_test.go asserts each is reported by the driver itself.
package ignore_bad

//simlint:ignore
func noName() {}

//simlint:ignore nosuchanalyzer because reasons
func badName() {}

//simlint:ignore unitsafe
func noReason() {}

//simlint:ignore cycledrop the retired name is no longer an analyzer
func retiredName() {}
