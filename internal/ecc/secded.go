// Package ecc implements the error-correcting codes of the X-Gene2 memory
// system: a (72,64) Hamming SECDED code as used by the DDR3 memory control
// units (single-error-correct, double-error-detect).
//
// The SECDED code is an extended Hamming code over 72 bit positions
// (numbered 1..72): positions 1, 2, 4, 8, 16, 32 and 64 hold the seven
// Hamming check bits, position 72 holds the overall parity bit, and the
// remaining 64 positions hold data bits. A non-zero syndrome with wrong
// overall parity locates a single flipped bit; a non-zero syndrome with
// correct overall parity signals an uncorrectable double error. Triple and
// higher errors may alias to an apparently-correctable pattern and escape as
// silent data corruption, which is exactly the behaviour the
// characterization framework must account for.
package ecc

import "math/bits"

// Outcome classifies the result of decoding a (possibly corrupted) codeword.
type Outcome int

const (
	// OK means the codeword carried no detectable error.
	OK Outcome = iota + 1
	// Corrected means a single-bit error was detected and repaired (CE).
	Corrected
	// Detected means an uncorrectable (double-bit) error was detected (UE).
	Detected
	// Miscorrected means the decoder "corrected" a multi-bit error into the
	// wrong data word. Callers can only observe this with a golden
	// reference; it models silent data corruption (SDC).
	Miscorrected
)

// String returns the conventional abbreviation for the outcome.
func (o Outcome) String() string {
	switch o {
	case OK:
		return "OK"
	case Corrected:
		return "CE"
	case Detected:
		return "UE"
	case Miscorrected:
		return "SDC"
	default:
		return "unknown"
	}
}

// Codeword is a 72-bit SECDED codeword: 64 data bits plus 8 check bits.
// Bit i of the conceptual 72-bit word (position i+1 in classic Hamming
// numbering) is stored in Bits[i/64] bit i%64 for i in [0, 72).
type Codeword struct {
	lo uint64 // positions 1..64
	hi uint8  // positions 65..72
}

// Bit returns bit at position pos (1-based, 1..72).
func (c Codeword) Bit(pos int) uint {
	i := pos - 1
	if i < 64 {
		return uint(c.lo>>uint(i)) & 1
	}
	return uint(c.hi>>uint(i-64)) & 1
}

// FlipBit returns a copy of the codeword with the bit at 1-based position
// pos inverted. Positions outside [1, 72] are ignored.
func (c Codeword) FlipBit(pos int) Codeword {
	i := pos - 1
	switch {
	case i < 0 || i >= 72:
		return c
	case i < 64:
		c.lo ^= 1 << uint(i)
	default:
		c.hi ^= 1 << uint(i-64)
	}
	return c
}

// dataPositions maps data bit index (0..63) to its 1-based codeword
// position, skipping power-of-two check-bit positions and the overall
// parity at 72.
var dataPositions = buildDataPositions()

func buildDataPositions() [64]int {
	var dp [64]int
	idx := 0
	for pos := 1; pos <= 71 && idx < 64; pos++ {
		if pos&(pos-1) == 0 { // power of two: check bit
			continue
		}
		dp[idx] = pos
		idx++
	}
	return dp
}

// checkPositions are the 1-based positions of the seven Hamming check bits.
var checkPositions = [7]int{1, 2, 4, 8, 16, 32, 64}

const parityPosition = 72

// Encode produces the SECDED codeword for a 64-bit data word.
func Encode(data uint64) Codeword {
	var cw Codeword
	// Place data bits.
	for i := 0; i < 64; i++ {
		if data>>uint(i)&1 == 1 {
			cw = cw.FlipBit(dataPositions[i])
		}
	}
	// Hamming check bit k covers every position whose k-th bit is set.
	for k, cpos := range checkPositions {
		parity := uint(0)
		for pos := 1; pos <= 71; pos++ {
			if pos == cpos {
				continue
			}
			if pos>>uint(k)&1 == 1 {
				parity ^= cw.Bit(pos)
			}
		}
		if parity == 1 {
			cw = cw.FlipBit(cpos)
		}
	}
	// Overall parity over positions 1..71.
	if cw.weight71()&1 == 1 {
		cw = cw.FlipBit(parityPosition)
	}
	return cw
}

// weight71 returns the popcount of positions 1..71.
func (c Codeword) weight71() int {
	return bits.OnesCount64(c.lo) + bits.OnesCount8(c.hi&0x7f)
}

// overallParity returns the parity of all 72 positions (0 when consistent).
func (c Codeword) overallParity() uint {
	return uint(bits.OnesCount64(c.lo)+bits.OnesCount8(c.hi)) & 1
}

// syndrome computes the seven-bit Hamming syndrome: the XOR of the position
// numbers of all set bits among positions 1..71 XORed with stored check
// bits; for a single error it equals the flipped position.
func (c Codeword) syndrome() int {
	syn := 0
	for k, cpos := range checkPositions {
		parity := uint(0)
		for pos := 1; pos <= 71; pos++ {
			if pos>>uint(k)&1 == 1 {
				parity ^= c.Bit(pos)
			}
		}
		_ = cpos
		if parity == 1 {
			syn |= 1 << uint(k)
		}
	}
	return syn
}

// extractData recovers the 64 data bits of the codeword.
func (c Codeword) extractData() uint64 {
	var data uint64
	for i := 0; i < 64; i++ {
		data |= uint64(c.Bit(dataPositions[i])) << uint(i)
	}
	return data
}

// Decode decodes a possibly corrupted codeword, returning the recovered data
// and the decoder's view of what happened. Decode cannot distinguish a true
// single-bit correction from a miscorrected triple error; use Verify when a
// golden reference is available to detect Miscorrected outcomes.
func Decode(cw Codeword) (data uint64, outcome Outcome) {
	syn := cw.syndrome()
	parityErr := cw.overallParity() == 1
	switch {
	case syn == 0 && !parityErr:
		return cw.extractData(), OK
	case syn == 0 && parityErr:
		// Error in the overall parity bit itself: data is intact.
		return cw.extractData(), Corrected
	case parityErr:
		// Odd number of flipped bits: assume single error at syn.
		if syn >= 1 && syn <= 71 {
			cw = cw.FlipBit(syn)
			return cw.extractData(), Corrected
		}
		// Syndrome points outside the codeword: uncorrectable.
		return cw.extractData(), Detected
	default:
		// Non-zero syndrome, even parity: double error detected.
		return cw.extractData(), Detected
	}
}

// Verify decodes cw and cross-checks against the original data word,
// upgrading an apparently successful correction (or clean decode) that
// yields wrong data to Miscorrected. This mirrors the paper's
// golden-reference comparison used to catch SDC behind the ECC.
func Verify(cw Codeword, golden uint64) (data uint64, outcome Outcome) {
	data, outcome = Decode(cw)
	if (outcome == OK || outcome == Corrected) && data != golden {
		return data, Miscorrected
	}
	return data, outcome
}
