//! Arbitrary-precision natural numbers.
//!
//! The unrestricted fragments of the set-reduce language (`SRL + new`, `LRL`,
//! and the arithmetic extension of Section 3) compute primitive recursive
//! functions, whose values overflow any fixed-width machine integer almost
//! immediately (the paper's own example is `x^(2^n)` by repeated squaring).
//! The evaluator therefore uses this small, dependency-free natural-number
//! type: a little-endian vector of 64-bit limbs with no leading zero limb.
//!
//! Only the operations the paper needs are provided: successor/predecessor,
//! addition, saturating subtraction, multiplication, powers, shifts, bit
//! access, division/remainder by a power of two, and comparisons. All
//! operations are total on naturals (subtraction saturates at zero, matching
//! the usual primitive-recursive "monus").

use std::cmp::Ordering;
use std::fmt;

/// An arbitrary-precision natural number.
///
/// Invariant: `limbs` is little-endian (least significant limb first) and has
/// no trailing zero limb; zero is represented by an empty vector.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BigNat {
    limbs: Vec<u64>,
}

impl BigNat {
    /// The natural number zero.
    pub fn zero() -> Self {
        BigNat { limbs: Vec::new() }
    }

    /// The natural number one.
    pub fn one() -> Self {
        BigNat { limbs: vec![1] }
    }

    /// Builds a natural from a machine word.
    pub fn from_u64(v: u64) -> Self {
        if v == 0 {
            Self::zero()
        } else {
            BigNat { limbs: vec![v] }
        }
    }

    /// Builds a natural from a `usize`.
    pub fn from_usize(v: usize) -> Self {
        Self::from_u64(v as u64)
    }

    /// Returns the value as a `u64` if it fits.
    pub fn to_u64(&self) -> Option<u64> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0]),
            _ => None,
        }
    }

    /// True iff the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Number of significant bits (zero has zero bits).
    pub fn bit_len(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(&top) => (self.limbs.len() - 1) * 64 + (64 - top.leading_zeros() as usize),
        }
    }

    /// Returns bit `i` (little-endian; bit 0 is the least significant bit).
    pub fn bit(&self, i: usize) -> bool {
        let limb = i / 64;
        let off = i % 64;
        self.limbs.get(limb).is_some_and(|l| (l >> off) & 1 == 1)
    }

    /// Sets bit `i` to 1.
    pub fn set_bit(&mut self, i: usize) {
        let limb = i / 64;
        let off = i % 64;
        if self.limbs.len() <= limb {
            self.limbs.resize(limb + 1, 0);
        }
        self.limbs[limb] |= 1u64 << off;
        self.normalize();
    }

    /// Clears bit `i`.
    pub fn clear_bit(&mut self, i: usize) {
        let limb = i / 64;
        let off = i % 64;
        if let Some(l) = self.limbs.get_mut(limb) {
            *l &= !(1u64 << off);
        }
        self.normalize();
    }

    /// Index of the lowest set bit, or `None` for zero.
    ///
    /// This is the paper's `Rlog` (Section 5): `Rlog(n)` = minimum `k` such
    /// that `Bit(n, k)` is 1.
    pub fn lowest_set_bit(&self) -> Option<usize> {
        for (i, &l) in self.limbs.iter().enumerate() {
            if l != 0 {
                return Some(i * 64 + l.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Index of the highest set bit, or `None` for zero.
    ///
    /// This is the paper's `Log` (Section 5): `Log(n)` = maximum `k` such
    /// that `Bit(n, k)` is 1.
    pub fn highest_set_bit(&self) -> Option<usize> {
        if self.is_zero() {
            None
        } else {
            Some(self.bit_len() - 1)
        }
    }

    /// Successor: `self + 1`.
    pub fn succ(&self) -> Self {
        self.add(&BigNat::one())
    }

    /// Predecessor, saturating at zero.
    pub fn pred(&self) -> Self {
        self.saturating_sub(&BigNat::one())
    }

    /// Addition.
    pub fn add(&self, other: &Self) -> Self {
        let (a, b) = if self.limbs.len() >= other.limbs.len() {
            (&self.limbs, &other.limbs)
        } else {
            (&other.limbs, &self.limbs)
        };
        let mut out = Vec::with_capacity(a.len() + 1);
        let mut carry = 0u64;
        for (i, &ai) in a.iter().enumerate() {
            let bi = b.get(i).copied().unwrap_or(0);
            let (s1, c1) = ai.overflowing_add(bi);
            let (s2, c2) = s1.overflowing_add(carry);
            out.push(s2);
            carry = u64::from(c1) + u64::from(c2);
        }
        if carry != 0 {
            out.push(carry);
        }
        let mut r = BigNat { limbs: out };
        r.normalize();
        r
    }

    /// Saturating subtraction ("monus"): `max(self - other, 0)`.
    pub fn saturating_sub(&self, other: &Self) -> Self {
        if self <= other {
            return Self::zero();
        }
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let bi = other.limbs.get(i).copied().unwrap_or(0);
            let (d1, b1) = self.limbs[i].overflowing_sub(bi);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out.push(d2);
            borrow = u64::from(b1) + u64::from(b2);
        }
        debug_assert_eq!(borrow, 0, "saturating_sub: borrow out of a larger number");
        let mut r = BigNat { limbs: out };
        r.normalize();
        r
    }

    /// Multiplication (schoolbook; all the paper's workloads are small).
    pub fn mul(&self, other: &Self) -> Self {
        if self.is_zero() || other.is_zero() {
            return Self::zero();
        }
        let mut out = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &b) in other.limbs.iter().enumerate() {
                let cur = out[i + j] as u128 + (a as u128) * (b as u128) + carry;
                out[i + j] = cur as u64;
                carry = cur >> 64;
            }
            let mut k = i + other.limbs.len();
            while carry != 0 {
                let cur = out[k] as u128 + carry;
                out[k] = cur as u64;
                carry = cur >> 64;
                k += 1;
            }
        }
        let mut r = BigNat { limbs: out };
        r.normalize();
        r
    }

    /// Multiplication by a machine word.
    pub fn mul_u64(&self, m: u64) -> Self {
        self.mul(&BigNat::from_u64(m))
    }

    /// `self`ᵉ by binary exponentiation.
    pub fn pow(&self, mut exp: u64) -> Self {
        let mut base = self.clone();
        let mut acc = BigNat::one();
        while exp > 0 {
            if exp & 1 == 1 {
                acc = acc.mul(&base);
            }
            exp >>= 1;
            if exp > 0 {
                base = base.mul(&base);
            }
        }
        acc
    }

    /// 2ᵏ, the paper's `Exp(2, k)` used in the Gödel coding of sets.
    pub fn pow2(k: usize) -> Self {
        let mut n = BigNat::zero();
        n.set_bit(k);
        n
    }

    /// Left shift by `k` bits (multiplication by 2ᵏ).
    pub fn shl(&self, k: usize) -> Self {
        if self.is_zero() || k == 0 {
            return self.clone();
        }
        let limb_shift = k / 64;
        let bit_shift = k % 64;
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                out.push((l << bit_shift) | carry);
                carry = l >> (64 - bit_shift);
            }
            if carry != 0 {
                out.push(carry);
            }
        }
        let mut r = BigNat { limbs: out };
        r.normalize();
        r
    }

    /// Right shift by `k` bits (the paper's `Div(n, k)` = ⌊n / 2ᵏ⌋).
    pub fn shr(&self, k: usize) -> Self {
        let limb_shift = k / 64;
        if limb_shift >= self.limbs.len() {
            return Self::zero();
        }
        let bit_shift = k % 64;
        let mut out = Vec::with_capacity(self.limbs.len() - limb_shift);
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs[limb_shift..]);
        } else {
            let src = &self.limbs[limb_shift..];
            for i in 0..src.len() {
                let lo = src[i] >> bit_shift;
                let hi = src.get(i + 1).copied().unwrap_or(0) << (64 - bit_shift);
                out.push(lo | hi);
            }
        }
        let mut r = BigNat { limbs: out };
        r.normalize();
        r
    }

    /// The paper's `Mod(n, j)` = n mod 2ʲ: keeps only the lowest `j` bits.
    pub fn mod_pow2(&self, j: usize) -> Self {
        let limb = j / 64;
        let off = j % 64;
        if limb >= self.limbs.len() {
            return self.clone();
        }
        let mut out = self.limbs[..=limb].to_vec();
        if off == 0 {
            out.pop();
        } else {
            let mask = (1u64 << off) - 1;
            *out.last_mut().expect("non-empty by construction") &= mask;
        }
        let mut r = BigNat { limbs: out };
        r.normalize();
        r
    }

    /// Renders the value in binary (most significant bit first), mainly for
    /// debugging the Gödel codings of Theorem 5.2.
    pub fn to_binary_string(&self) -> String {
        if self.is_zero() {
            return "0".to_string();
        }
        let bits = self.bit_len();
        let mut s = String::with_capacity(bits);
        for i in (0..bits).rev() {
            s.push(if self.bit(i) { '1' } else { '0' });
        }
        s
    }

    /// Renders the value in decimal.
    pub fn to_decimal_string(&self) -> String {
        if self.is_zero() {
            return "0".to_string();
        }
        // Repeated division by 10^19 (the largest power of ten fitting a limb).
        const CHUNK: u64 = 10_000_000_000_000_000_000;
        let mut digits_rev: Vec<String> = Vec::new();
        let mut cur = self.limbs.clone();
        while !cur.is_empty() {
            let mut rem: u128 = 0;
            let mut next: Vec<u64> = vec![0; cur.len()];
            for i in (0..cur.len()).rev() {
                let acc = (rem << 64) | cur[i] as u128;
                next[i] = (acc / CHUNK as u128) as u64;
                rem = acc % CHUNK as u128;
            }
            while next.last() == Some(&0) {
                next.pop();
            }
            if next.is_empty() {
                digits_rev.push(format!("{rem}"));
            } else {
                digits_rev.push(format!("{rem:019}"));
            }
            cur = next;
        }
        digits_rev.reverse();
        digits_rev.concat()
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }
}

impl PartialOrd for BigNat {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigNat {
    fn cmp(&self, other: &Self) -> Ordering {
        match self.limbs.len().cmp(&other.limbs.len()) {
            Ordering::Equal => {
                for i in (0..self.limbs.len()).rev() {
                    match self.limbs[i].cmp(&other.limbs[i]) {
                        Ordering::Equal => continue,
                        ord => return ord,
                    }
                }
                Ordering::Equal
            }
            ord => ord,
        }
    }
}

impl fmt::Debug for BigNat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigNat({})", self.to_decimal_string())
    }
}

impl fmt::Display for BigNat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_decimal_string())
    }
}

impl From<u64> for BigNat {
    fn from(v: u64) -> Self {
        BigNat::from_u64(v)
    }
}

impl From<usize> for BigNat {
    fn from(v: usize) -> Self {
        BigNat::from_usize(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(v: u64) -> BigNat {
        BigNat::from_u64(v)
    }

    #[test]
    fn zero_and_one() {
        assert!(BigNat::zero().is_zero());
        assert!(!BigNat::one().is_zero());
        assert_eq!(BigNat::zero().to_u64(), Some(0));
        assert_eq!(BigNat::one().to_u64(), Some(1));
    }

    #[test]
    fn add_small() {
        assert_eq!(n(2).add(&n(3)), n(5));
        assert_eq!(n(0).add(&n(7)), n(7));
        assert_eq!(n(7).add(&n(0)), n(7));
    }

    #[test]
    fn add_with_carry_across_limbs() {
        let a = n(u64::MAX);
        let b = n(1);
        let s = a.add(&b);
        assert_eq!(s.to_u64(), None);
        assert_eq!(s.bit_len(), 65);
        assert!(s.bit(64));
        assert!(!s.bit(0));
    }

    #[test]
    fn saturating_sub_basic() {
        assert_eq!(n(10).saturating_sub(&n(3)), n(7));
        assert_eq!(n(3).saturating_sub(&n(10)), n(0));
        assert_eq!(n(3).saturating_sub(&n(3)), n(0));
    }

    #[test]
    fn saturating_sub_with_borrow() {
        let a = n(u64::MAX).add(&n(5)); // 2^64 + 4
        let b = n(10);
        let d = a.saturating_sub(&b);
        assert_eq!(d, n(u64::MAX).saturating_sub(&n(5)));
    }

    #[test]
    fn mul_small() {
        assert_eq!(n(6).mul(&n(7)), n(42));
        assert_eq!(n(0).mul(&n(7)), n(0));
        assert_eq!(n(7).mul(&n(0)), n(0));
        assert_eq!(n(1).mul(&n(7)), n(7));
    }

    #[test]
    fn mul_large() {
        // (2^64)^2 = 2^128
        let a = BigNat::pow2(64);
        let sq = a.mul(&a);
        assert_eq!(sq, BigNat::pow2(128));
    }

    #[test]
    fn pow_and_pow2() {
        assert_eq!(n(2).pow(10), n(1024));
        assert_eq!(n(3).pow(0), n(1));
        assert_eq!(n(3).pow(4), n(81));
        assert_eq!(BigNat::pow2(10), n(1024));
        assert_eq!(BigNat::pow2(0), n(1));
    }

    #[test]
    fn repeated_squaring_matches_pow() {
        // The paper's observation: allowing * in the accumulator computes
        // x^(2^n) by repeated squaring. Check x^(2^6) for x = 3.
        let mut acc = n(3);
        for _ in 0..6 {
            acc = acc.mul(&acc);
        }
        assert_eq!(acc, n(3).pow(64));
    }

    #[test]
    fn shifts() {
        assert_eq!(n(1).shl(3), n(8));
        assert_eq!(n(5).shl(0), n(5));
        assert_eq!(n(8).shr(3), n(1));
        assert_eq!(n(8).shr(4), n(0));
        assert_eq!(BigNat::pow2(100).shr(100), n(1));
        assert_eq!(BigNat::pow2(100).shr(101), n(0));
        assert_eq!(n(0b1011).shr(1), n(0b101));
    }

    #[test]
    fn shift_roundtrip() {
        for k in [0usize, 1, 5, 63, 64, 65, 127, 200] {
            let x = n(0xDEAD_BEEF);
            assert_eq!(x.shl(k).shr(k), x, "k = {k}");
        }
    }

    #[test]
    fn bits() {
        let x = n(0b1010_0110);
        assert!(!x.bit(0));
        assert!(x.bit(1));
        assert!(x.bit(2));
        assert!(!x.bit(3));
        assert!(x.bit(5));
        assert!(x.bit(7));
        assert!(!x.bit(8));
        assert!(!x.bit(1000));
        assert_eq!(x.lowest_set_bit(), Some(1));
        assert_eq!(x.highest_set_bit(), Some(7));
        assert_eq!(BigNat::zero().lowest_set_bit(), None);
        assert_eq!(BigNat::zero().highest_set_bit(), None);
    }

    #[test]
    fn set_and_clear_bit() {
        let mut x = BigNat::zero();
        x.set_bit(70);
        assert!(x.bit(70));
        assert_eq!(x, BigNat::pow2(70));
        x.clear_bit(70);
        assert!(x.is_zero());
    }

    #[test]
    fn mod_pow2_matches_definition() {
        let x = n(0b110_1011);
        assert_eq!(x.mod_pow2(0), n(0));
        assert_eq!(x.mod_pow2(1), n(1));
        assert_eq!(x.mod_pow2(3), n(0b011));
        assert_eq!(x.mod_pow2(4), n(0b1011));
        assert_eq!(x.mod_pow2(100), x);
    }

    #[test]
    fn succ_pred() {
        assert_eq!(n(0).succ(), n(1));
        assert_eq!(n(41).succ(), n(42));
        assert_eq!(n(42).pred(), n(41));
        assert_eq!(n(0).pred(), n(0));
        assert_eq!(n(u64::MAX).succ().pred(), n(u64::MAX));
    }

    #[test]
    fn ordering() {
        assert!(n(3) < n(5));
        assert!(n(5) > n(3));
        assert_eq!(n(5).cmp(&n(5)), Ordering::Equal);
        assert!(BigNat::pow2(64) > n(u64::MAX));
        assert!(BigNat::pow2(128) > BigNat::pow2(64));
    }

    #[test]
    fn bit_len() {
        assert_eq!(BigNat::zero().bit_len(), 0);
        assert_eq!(n(1).bit_len(), 1);
        assert_eq!(n(2).bit_len(), 2);
        assert_eq!(n(255).bit_len(), 8);
        assert_eq!(n(256).bit_len(), 9);
        assert_eq!(BigNat::pow2(200).bit_len(), 201);
    }

    #[test]
    fn decimal_rendering() {
        assert_eq!(BigNat::zero().to_decimal_string(), "0");
        assert_eq!(n(12345).to_decimal_string(), "12345");
        assert_eq!(n(u64::MAX).to_decimal_string(), u64::MAX.to_string(),);
        // 2^128 = 340282366920938463463374607431768211456
        assert_eq!(
            BigNat::pow2(128).to_decimal_string(),
            "340282366920938463463374607431768211456"
        );
    }

    #[test]
    fn binary_rendering() {
        assert_eq!(BigNat::zero().to_binary_string(), "0");
        assert_eq!(n(0b1011).to_binary_string(), "1011");
    }

    #[test]
    fn display_and_debug() {
        assert_eq!(format!("{}", n(99)), "99");
        assert_eq!(format!("{:?}", n(99)), "BigNat(99)");
    }

    #[test]
    fn from_conversions() {
        assert_eq!(BigNat::from(7u64), n(7));
        assert_eq!(BigNat::from(7usize), n(7));
    }
}
