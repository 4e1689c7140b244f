// Package anon provides the IP address anonymization applied to the
// study's flow traces before analysis.
//
// CryptoPAn implements prefix-preserving anonymization (Xu et al.,
// "Prefix-Preserving IP Address Anonymization") on AES-128: two addresses
// sharing a k-bit prefix map to anonymized addresses sharing a k-bit
// prefix, so subnet structure — which the DDoS analyses group on —
// survives anonymization. Truncate implements the simpler
// zero-the-host-bits policy some operators use.
package anon //bsvet:allow deadcode no production caller; kept for its 12 Crypto-PAn tests (deletion deferred, ROADMAP 8(iv))

import (
	"crypto/aes"
	"crypto/cipher"
	"fmt"
	"net/netip"

	"booterscope/internal/netutil"
)

// Anonymizer maps real addresses to anonymized ones.
type Anonymizer interface {
	// Anonymize returns the anonymized form of addr.
	Anonymize(addr netip.Addr) netip.Addr
}

// CryptoPAn is a prefix-preserving anonymizer. Construct with
// NewCryptoPAn; the zero value is unusable.
type CryptoPAn struct {
	block cipher.Block
	pad   [16]byte
}

// NewCryptoPAn builds an anonymizer from a 32-byte key: 16 bytes for the
// AES key, 16 for the padding block.
func NewCryptoPAn(key []byte) (*CryptoPAn, error) {
	if len(key) != 32 {
		return nil, fmt.Errorf("anon: key must be 32 bytes, got %d", len(key))
	}
	block, err := aes.NewCipher(key[:16])
	if err != nil {
		return nil, fmt.Errorf("anon: building cipher: %w", err)
	}
	c := &CryptoPAn{block: block}
	block.Encrypt(c.pad[:], key[16:32])
	return c, nil
}

// Anonymize implements Anonymizer for IPv4 addresses. Non-IPv4 addresses
// are returned unchanged.
func (c *CryptoPAn) Anonymize(addr netip.Addr) netip.Addr {
	if addr.Is4In6() {
		addr = addr.Unmap()
	}
	if !addr.Is4() {
		return addr
	}
	orig := netutil.Addr4Val(addr)
	var result uint32
	var input, output [16]byte
	// For each bit position, encrypt the address prefix padded with the
	// secret pad and take the MSB of the ciphertext as the flip bit.
	for pos := 0; pos < 32; pos++ {
		copy(input[:], c.pad[:])
		if pos > 0 {
			mask := uint32(0xffffffff) << (32 - pos)
			prefix := orig & mask
			// Mix prefix bits into the first 4 bytes, keeping pad bits for
			// the remainder of the padded positions.
			padWord := uint32(c.pad[0])<<24 | uint32(c.pad[1])<<16 | uint32(c.pad[2])<<8 | uint32(c.pad[3])
			mixed := prefix | (padWord &^ mask)
			input[0] = byte(mixed >> 24)
			input[1] = byte(mixed >> 16)
			input[2] = byte(mixed >> 8)
			input[3] = byte(mixed)
		}
		c.block.Encrypt(output[:], input[:])
		flip := uint32(output[0]>>7) & 1
		result |= flip << (31 - pos)
	}
	return netutil.Addr4(orig ^ result)
}

// Truncate zeroes the host bits of every address, keeping the top Bits
// bits. It is not reversible and not collision-free, but extremely fast.
type Truncate struct {
	// Bits is the number of leading bits preserved (default 24).
	Bits int
}

// Anonymize implements Anonymizer.
func (t Truncate) Anonymize(addr netip.Addr) netip.Addr {
	bits := t.Bits
	if bits <= 0 {
		bits = 24
	}
	if bits >= 32 {
		return addr
	}
	if !addr.Is4() {
		return addr
	}
	mask := uint32(0xffffffff) << (32 - bits)
	return netutil.Addr4(netutil.Addr4Val(addr) & mask)
}
