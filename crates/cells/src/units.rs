//! Physical-quantity newtypes used across the workspace.
//!
//! Bias currents are carried in milliamperes and areas in square microns,
//! matching the granularity of SFQ cell libraries; the paper's tables report
//! mA and mm², and [`SquareMicrons::as_square_millimeters`] performs the
//! conversion at the reporting boundary only.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A DC bias current in milliamperes.
///
/// # Example
///
/// ```
/// use sfq_cells::MilliAmps;
///
/// let a = MilliAmps::new(0.5);
/// let b = MilliAmps::new(0.36);
/// assert_eq!((a + b).as_milliamps(), 0.86);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct MilliAmps(f64);

impl MilliAmps {
    /// Zero current.
    pub const ZERO: MilliAmps = MilliAmps(0.0);

    /// Creates a current from a value in milliamperes.
    pub fn new(ma: f64) -> Self {
        MilliAmps(ma)
    }

    /// Returns the value in milliamperes.
    pub fn as_milliamps(self) -> f64 {
        self.0
    }

    /// Returns the value in amperes.
    pub fn as_amps(self) -> f64 {
        self.0 * 1e-3
    }

    /// Returns the value in microamperes.
    pub fn as_microamps(self) -> f64 {
        self.0 * 1e3
    }

    /// Returns the larger of two currents.
    pub fn max(self, other: Self) -> Self {
        MilliAmps(self.0.max(other.0))
    }

    /// Returns the smaller of two currents.
    pub fn min(self, other: Self) -> Self {
        MilliAmps(self.0.min(other.0))
    }

    /// Returns the absolute value.
    pub fn abs(self) -> Self {
        MilliAmps(self.0.abs())
    }
}

/// A layout area in square microns.
///
/// # Example
///
/// ```
/// use sfq_cells::SquareMicrons;
///
/// let cell = SquareMicrons::new(4_800.0);
/// assert!((cell.as_square_millimeters() - 0.0048).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct SquareMicrons(f64);

impl SquareMicrons {
    /// Zero area.
    pub const ZERO: SquareMicrons = SquareMicrons(0.0);

    /// Creates an area from a value in square microns.
    pub fn new(um2: f64) -> Self {
        SquareMicrons(um2)
    }

    /// Returns the value in square microns.
    pub fn as_square_microns(self) -> f64 {
        self.0
    }

    /// Returns the value in square millimeters (the paper's reporting unit).
    pub fn as_square_millimeters(self) -> f64 {
        self.0 * 1e-6
    }

    /// Returns the larger of two areas.
    pub fn max(self, other: Self) -> Self {
        SquareMicrons(self.0.max(other.0))
    }

    /// Returns the smaller of two areas.
    pub fn min(self, other: Self) -> Self {
        SquareMicrons(self.0.min(other.0))
    }

    /// Returns the absolute value.
    pub fn abs(self) -> Self {
        SquareMicrons(self.0.abs())
    }
}

macro_rules! impl_quantity_ops {
    ($ty:ident) => {
        impl Add for $ty {
            type Output = $ty;
            fn add(self, rhs: $ty) -> $ty {
                $ty(self.0 + rhs.0)
            }
        }
        impl AddAssign for $ty {
            fn add_assign(&mut self, rhs: $ty) {
                self.0 += rhs.0;
            }
        }
        impl Sub for $ty {
            type Output = $ty;
            fn sub(self, rhs: $ty) -> $ty {
                $ty(self.0 - rhs.0)
            }
        }
        impl SubAssign for $ty {
            fn sub_assign(&mut self, rhs: $ty) {
                self.0 -= rhs.0;
            }
        }
        impl Neg for $ty {
            type Output = $ty;
            fn neg(self) -> $ty {
                $ty(-self.0)
            }
        }
        impl Mul<f64> for $ty {
            type Output = $ty;
            fn mul(self, rhs: f64) -> $ty {
                $ty(self.0 * rhs)
            }
        }
        impl Mul<$ty> for f64 {
            type Output = $ty;
            fn mul(self, rhs: $ty) -> $ty {
                $ty(self * rhs.0)
            }
        }
        impl Div<f64> for $ty {
            type Output = $ty;
            fn div(self, rhs: f64) -> $ty {
                $ty(self.0 / rhs)
            }
        }
        impl Div<$ty> for $ty {
            /// Ratio of two quantities of the same dimension.
            type Output = f64;
            fn div(self, rhs: $ty) -> f64 {
                self.0 / rhs.0
            }
        }
        impl Sum for $ty {
            fn sum<I: Iterator<Item = $ty>>(iter: I) -> $ty {
                iter.fold($ty(0.0), |acc, x| acc + x)
            }
        }
        impl<'a> Sum<&'a $ty> for $ty {
            fn sum<I: Iterator<Item = &'a $ty>>(iter: I) -> $ty {
                iter.fold($ty(0.0), |acc, x| acc + *x)
            }
        }
    };
}

impl_quantity_ops!(MilliAmps);
impl_quantity_ops!(SquareMicrons);

impl fmt::Display for MilliAmps {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(prec) = f.precision() {
            write!(f, "{:.*} mA", prec, self.0)
        } else {
            write!(f, "{} mA", self.0)
        }
    }
}

impl fmt::Display for SquareMicrons {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(prec) = f.precision() {
            write!(f, "{:.*} um^2", prec, self.0)
        } else {
            write!(f, "{} um^2", self.0)
        }
    }
}

impl From<f64> for MilliAmps {
    fn from(ma: f64) -> Self {
        MilliAmps::new(ma)
    }
}

impl From<f64> for SquareMicrons {
    fn from(um2: f64) -> Self {
        SquareMicrons::new(um2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn milliamp_arithmetic() {
        let a = MilliAmps::new(1.5);
        let b = MilliAmps::new(0.5);
        assert_eq!((a + b).as_milliamps(), 2.0);
        assert_eq!((a - b).as_milliamps(), 1.0);
        assert_eq!((a * 2.0).as_milliamps(), 3.0);
        assert_eq!((a / 3.0).as_milliamps(), 0.5);
        assert_eq!(a / b, 3.0);
        assert_eq!((-b).as_milliamps(), -0.5);
    }

    #[test]
    fn milliamp_conversions() {
        let i = MilliAmps::new(2500.0);
        assert!((i.as_amps() - 2.5).abs() < 1e-12);
        assert!((MilliAmps::new(0.5).as_microamps() - 500.0).abs() < 1e-12);
    }

    #[test]
    fn area_conversions() {
        let a = SquareMicrons::new(1_000_000.0);
        assert!((a.as_square_millimeters() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sums_over_iterators() {
        let total: MilliAmps = (0..4).map(|_| MilliAmps::new(0.25)).sum();
        assert_eq!(total.as_milliamps(), 1.0);
        let refs = [SquareMicrons::new(1.0), SquareMicrons::new(2.0)];
        let total: SquareMicrons = refs.iter().sum();
        assert_eq!(total.as_square_microns(), 3.0);
    }

    #[test]
    fn min_max_and_ordering() {
        let a = MilliAmps::new(1.0);
        let b = MilliAmps::new(2.0);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert!(a < b);
        assert_eq!(MilliAmps::new(-1.5).abs(), MilliAmps::new(1.5));
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{:.2}", MilliAmps::new(1.234)), "1.23 mA");
        assert_eq!(format!("{:.0}", SquareMicrons::new(42.6)), "43 um^2");
        assert_eq!(format!("{}", MilliAmps::new(1.5)), "1.5 mA");
    }

    #[test]
    fn zero_constants_and_default() {
        assert_eq!(MilliAmps::ZERO, MilliAmps::default());
        assert_eq!(SquareMicrons::ZERO, SquareMicrons::default());
    }

    #[test]
    fn from_f64() {
        let i: MilliAmps = 3.5.into();
        assert_eq!(i.as_milliamps(), 3.5);
        let a: SquareMicrons = 10.0.into();
        assert_eq!(a.as_square_microns(), 10.0);
    }
}
