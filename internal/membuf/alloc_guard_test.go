package membuf

import (
	"testing"

	"miniamr/internal/allocguard"
)

// TestAllocBudgets is the arena's allocation table: a Get served from a
// free list and its Put, a lease's round trip and a cache's round trip
// allocate nothing once the first call has filled the size class.
func TestAllocBudgets(t *testing.T) {
	a := New()
	c := NewCache(a)
	allocguard.Check(t, []allocguard.Row{
		{"GetFloat64+PutFloat64", 0, func() { a.PutFloat64(a.GetFloat64(100)) }},
		{"GetInt+PutInt", 0, func() { a.PutInt(a.GetInt(100)) }},
		{"GetByte+PutByte", 0, func() { a.PutByte(a.GetByte(100)) }},
		{"LeaseFloat64+Release", 0, func() { a.LeaseFloat64(100).Release() }},
		{"Cache GetFloat64+PutFloat64", 0, func() { c.PutFloat64(c.GetFloat64(100)) }},
	})
}
