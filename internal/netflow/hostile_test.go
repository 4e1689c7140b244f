package netflow

import (
	"errors"
	"testing"
)

func TestV9TemplateLengthsValidated(t *testing.T) {
	for _, tc := range []struct {
		name string
		tpl  []byte
	}{
		{"one-byte address", v9TemplateSet(templateField{fieldIPv4Src, 1})},
		{"two-byte timestamp", v9TemplateSet(templateField{fieldFirst, 2})},
		{"three-byte port", v9TemplateSet(templateField{fieldL4Dst, 3})},
		{"zero-length protocol", v9TemplateSet(templateField{fieldProtocol, 0})},
		{"nine-byte counter", v9TemplateSet(templateField{fieldInBytes, 9})},
		{"no fields", v9TemplateSet()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewV9Collector()
			_, err := c.DecodeV9(v9Packet(tc.tpl, v9Set(256, 1, 2, 3, 4, 5, 6, 7, 8, 9)))
			if !errors.Is(err, errBadTemplate) {
				t.Fatalf("DecodeV9 = %v, want a refusal wrapping errBadTemplate", err)
			}
			if c.BadTemplates() != 1 {
				t.Fatalf("BadTemplates = %d, want 1", c.BadTemplates())
			}
			// The refused template was not stored.
			if _, err := c.DecodeV9(v9Packet(v9Set(256, 1, 2, 3, 4))); !errors.Is(err, errNoTemplate) {
				t.Fatalf("data flowset after a refused template: %v, want ErrNoTemplate", err)
			}
		})
	}
}

// TestV9RefusedRedefinitionWithdrawsTemplate: when an exporter
// redefines a stored id with a template the collector refuses, its
// later data flowsets are laid out for the new template; reading them
// with the old one would yield wrong records, so the id is withdrawn.
func TestV9RefusedRedefinitionWithdrawsTemplate(t *testing.T) {
	c := NewV9Collector()
	data := v9Packet(v9Set(256, 198, 51, 100, 7))
	good := v9Packet(v9TemplateSet(templateField{fieldIPv4Dst, 4}))
	if _, err := c.DecodeV9(good); err != nil {
		t.Fatal(err)
	}
	if recs, err := c.DecodeV9(data); err != nil || len(recs) != 1 {
		t.Fatalf("DecodeV9 with the good template = %d records, %v", len(recs), err)
	}
	bad := v9Packet(v9TemplateSet(templateField{fieldIPv4Dst, 4}, templateField{fieldFirst, 2}))
	if _, err := c.DecodeV9(bad); !errors.Is(err, errBadTemplate) {
		t.Fatalf("redefinition = %v, want a refusal", err)
	}
	if recs, err := c.DecodeV9(data); !errors.Is(err, errNoTemplate) {
		t.Fatalf("data flowset after a refused redefinition = %d records, %v; want ErrNoTemplate", len(recs), err)
	}
	if _, err := c.DecodeV9(good); err != nil {
		t.Fatal(err)
	}
	if recs, err := c.DecodeV9(data); err != nil || len(recs) != 1 {
		t.Fatalf("DecodeV9 after the template came back = %d records, %v", len(recs), err)
	}
}

// TestV9ReducedSizeFieldsDecode: narrower counters, ports and AS
// numbers than booterscope's own template exports are legal.
func TestV9ReducedSizeFieldsDecode(t *testing.T) {
	c := NewV9Collector()
	recs, err := c.DecodeV9(v9Packet(
		v9TemplateSet(
			templateField{fieldIPv4Dst, 4}, templateField{fieldInPkts, 4},
			templateField{fieldL4Src, 1}, templateField{fieldSrcAS, 2},
			templateField{9999, 3},
		),
		v9Set(256,
			198, 51, 100, 7,
			0, 0, 1, 2,
			123,
			0xfd, 0xe8,
			0xaa, 0xbb, 0xcc, // skipped unknown field
		),
	))
	if err != nil || len(recs) != 1 {
		t.Fatalf("DecodeV9 = %d records, %v", len(recs), err)
	}
	r := recs[0]
	if r.Dst.String() != "198.51.100.7" || r.Packets != 258 || r.SrcPort != 123 || r.SrcAS != 0xfde8 {
		t.Fatalf("reduced-size record decoded as %+v", r)
	}
}
