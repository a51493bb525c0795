// Package concept implements formal concept analysis (FCA) as used in
// Section 3 of the paper.
//
// A formal context relates a finite set of objects O to a finite set of
// attributes A through a relation R ⊆ O × A. A concept is a pair (X, Y)
// with X ⊆ O, Y ⊆ A such that Y is exactly the attributes shared by all of
// X and X is exactly the objects having all of Y. Concepts ordered by
// extent inclusion form a complete lattice.
//
// For specification debugging, objects are (representatives of classes of)
// traces and attributes are the transitions of a reference FA; (o, a) ∈ R
// iff transition a lies on some accepting run of the FA on o. The package
// is nevertheless generic: the animals example of Figures 9 and 10 is a
// plain context too.
//
// Lattices are built incrementally, one object at a time, in the style of
// Godin et al.'s Algorithm 1 (the algorithm the paper uses). One step
// inserts objects, their table entries and the covers of the concepts
// they spawn: a build runs it over every row, and an add over the one row
// it appends. A naive closure-enumeration builder is provided as an
// independently-implemented oracle for property tests.
package concept

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/bitset"
)

// Context is a formal context: objects, attributes, and the incidence
// relation between them. Objects and attributes are dense indices with
// display names. Build one with NewContext and Relate.
type Context struct {
	objNames  []string
	attrNames []string
	// rows[o] holds the attributes of object o and cols[a] the objects
	// having attribute a. The sets of each side are cut from one
	// bitset.Table, so a context of any size costs a handful of
	// allocations; the pointers stay valid as addObject appends rows.
	rows []*bitset.Set
	cols []*bitset.Set
}

// NewContext creates a context with the given object and attribute names
// and an empty relation.
func NewContext(objects, attributes []string) *Context {
	return newContext(append([]string(nil), objects...), append([]string(nil), attributes...))
}

// newContext is NewContext taking ownership of the name slices.
func newContext(objNames, attrNames []string) *Context {
	return &Context{
		objNames:  objNames,
		attrNames: attrNames,
		rows:      setPointers(bitset.Table(len(objNames), len(attrNames))),
		cols:      setPointers(bitset.Table(len(attrNames), len(objNames))),
	}
}

// setPointers returns a pointer to every set of table.
func setPointers(table []bitset.Set) []*bitset.Set {
	out := make([]*bitset.Set, len(table))
	for i := range table {
		out[i] = &table[i]
	}
	return out
}

// NumObjects returns the number of objects.
func (c *Context) NumObjects() int { return len(c.rows) }

// NumAttributes returns the number of attributes.
func (c *Context) NumAttributes() int { return len(c.cols) }

// ObjectName returns the display name of object o.
func (c *Context) ObjectName(o int) string { return c.objNames[o] }

// AttributeName returns the display name of attribute a.
func (c *Context) AttributeName(a int) string { return c.attrNames[a] }

// Relate records that object o has attribute a.
func (c *Context) Relate(o, a int) {
	if o < 0 || o >= len(c.rows) || a < 0 || a >= len(c.cols) {
		panic(fmt.Sprintf("concept: Relate(%d, %d) out of range (%d objects, %d attributes)",
			o, a, len(c.rows), len(c.cols)))
	}
	c.rows[o].Add(a)
	c.cols[a].Add(o)
}

// Has reports whether (o, a) is in the relation.
func (c *Context) Has(o, a int) bool { return c.rows[o].Has(a) }

// Attributes returns the attribute set of object o. The set is shared; do
// not mutate.
func (c *Context) Attributes(o int) *bitset.Set { return c.rows[o] }

// addObject appends one object with the given attribute row, extending the
// relation in place. The row is copied; the caller keeps ownership of its
// set. Attributes must already be validated in range.
func (c *Context) addObject(name string, row *bitset.Set) {
	c.objNames = append(c.objNames, name)
	c.rows = append(c.rows, row.Clone())
	c.relateRow(len(c.rows) - 1)
}

// relateRow records object o in the column of every attribute of its row.
func (c *Context) relateRow(o int) {
	c.rows[o].Range(func(a int) bool {
		c.cols[a].Add(o)
		return true
	})
}

// clone returns an independent deep copy of the context, its rows and
// columns each cut from one table again. The name slices are shared:
// names are never overwritten, and addObject's append on the clipped
// copy reallocates before it writes.
func (c *Context) clone() *Context {
	out := newContext(slices.Clip(c.objNames), slices.Clip(c.attrNames))
	for i, r := range c.rows {
		out.rows[i].CopyFrom(r)
	}
	for j, col := range c.cols {
		out.cols[j].CopyFrom(col)
	}
	return out
}

// Sigma computes σ(X): the attributes common to every object in X. For the
// empty X it returns all attributes (the convention that makes concepts a
// complete lattice).
func (c *Context) Sigma(x *bitset.Set) *bitset.Set {
	return c.SigmaInto(&bitset.Set{}, x)
}

// SigmaInto computes σ(X) into dst, reusing dst's storage, and returns dst.
func (c *Context) SigmaInto(dst, x *bitset.Set) *bitset.Set {
	dst.FillFull(len(c.cols))
	x.Range(func(o int) bool {
		dst.IntersectWith(c.rows[o])
		return true
	})
	return dst
}

// Tau computes τ(Y): the objects having every attribute in Y. For the empty
// Y it returns all objects.
func (c *Context) Tau(y *bitset.Set) *bitset.Set {
	return c.TauInto(&bitset.Set{}, y)
}

// TauInto computes τ(Y) into dst, reusing dst's storage, and returns dst.
func (c *Context) TauInto(dst, y *bitset.Set) *bitset.Set {
	dst.FillFull(len(c.rows))
	y.Range(func(a int) bool {
		dst.IntersectWith(c.cols[a])
		return true
	})
	return dst
}

// Similarity returns sim(X) = |σ(X)|: the number of attributes shared by all
// objects of X (Section 3.1). Smaller concepts deeper in the lattice have
// higher similarity.
func (c *Context) Similarity(x *bitset.Set) int { return c.Sigma(x).Len() }

// String renders the context as a cross table (objects as rows).
func (c *Context) String() string {
	var b strings.Builder
	width := 0
	for _, n := range c.objNames {
		if len(n) > width {
			width = len(n)
		}
	}
	fmt.Fprintf(&b, "%*s |", width, "")
	for j := range c.cols {
		fmt.Fprintf(&b, " %s", c.attrNames[j])
	}
	b.WriteByte('\n')
	for o := range c.rows {
		fmt.Fprintf(&b, "%*s |", width, c.objNames[o])
		for j := range c.cols {
			mark := " "
			if c.rows[o].Has(j) {
				mark = "x"
			}
			pad := len(c.attrNames[j]) - 1
			fmt.Fprintf(&b, " %s%s", mark, strings.Repeat(" ", pad))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
