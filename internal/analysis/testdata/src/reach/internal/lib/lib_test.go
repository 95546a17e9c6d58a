package lib

import "testing"

// A test file's references do not count.
func TestOnly(t *testing.T) {
	OnlyTests()
	T{}.Orphan()
	_ = queue{1}.Peek()
	Allowed()
}
