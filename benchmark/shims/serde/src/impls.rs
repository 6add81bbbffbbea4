//! `Serialize`/`Deserialize` for the standard-library types the
//! workspace puts in its messages and reports.

use crate::de::Error as _;
use crate::{Deserialize, Deserializer, Serialize, Serializer};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::hash::{BuildHasher, Hash};

macro_rules! primitive {
    ($($t:ty, $put:ident, $get:ident);* $(;)?) => {$(
        impl Serialize for $t {
            #[inline]
            fn serialize<S: Serializer + ?Sized>(&self, s: &mut S) -> Result<(), S::Error> {
                s.$put(*self)
            }
        }
        impl Deserialize for $t {
            #[inline]
            fn deserialize<D: Deserializer + ?Sized>(d: &mut D) -> Result<Self, D::Error> {
                d.$get()
            }
        }
    )*};
}

primitive! {
    bool, put_bool, get_bool;
    u16, put_u16, get_u16;
    u32, put_u32, get_u32;
    u64, put_u64, get_u64;
    u128, put_u128, get_u128;
    i8, put_i8, get_i8;
    i16, put_i16, get_i16;
    i32, put_i32, get_i32;
    i64, put_i64, get_i64;
    f32, put_f32, get_f32;
    f64, put_f64, get_f64;
    char, put_char, get_char;
}

impl Serialize for usize {
    #[inline]
    fn serialize<S: Serializer + ?Sized>(&self, s: &mut S) -> Result<(), S::Error> {
        s.put_u64(*self as u64)
    }
}

impl Deserialize for usize {
    #[inline]
    fn deserialize<D: Deserializer + ?Sized>(d: &mut D) -> Result<Self, D::Error> {
        usize::try_from(d.get_u64()?).map_err(|_| D::Error::custom("usize out of range"))
    }
}

impl Serialize for isize {
    #[inline]
    fn serialize<S: Serializer + ?Sized>(&self, s: &mut S) -> Result<(), S::Error> {
        s.put_i64(*self as i64)
    }
}

impl Deserialize for isize {
    #[inline]
    fn deserialize<D: Deserializer + ?Sized>(d: &mut D) -> Result<Self, D::Error> {
        isize::try_from(d.get_i64()?).map_err(|_| D::Error::custom("isize out of range"))
    }
}

impl Serialize for () {
    fn serialize<S: Serializer + ?Sized>(&self, s: &mut S) -> Result<(), S::Error> {
        s.put_unit()
    }
}

impl Deserialize for () {
    fn deserialize<D: Deserializer + ?Sized>(d: &mut D) -> Result<Self, D::Error> {
        d.get_unit()
    }
}

impl<T: ?Sized> Serialize for std::marker::PhantomData<T> {
    fn serialize<S: Serializer + ?Sized>(&self, s: &mut S) -> Result<(), S::Error> {
        s.put_unit()
    }
}

impl<T: ?Sized> Deserialize for std::marker::PhantomData<T> {
    fn deserialize<D: Deserializer + ?Sized>(d: &mut D) -> Result<Self, D::Error> {
        d.get_unit().map(|()| std::marker::PhantomData)
    }
}

impl Serialize for str {
    #[inline]
    fn serialize<S: Serializer + ?Sized>(&self, s: &mut S) -> Result<(), S::Error> {
        s.put_str(self)
    }
}

impl Serialize for String {
    #[inline]
    fn serialize<S: Serializer + ?Sized>(&self, s: &mut S) -> Result<(), S::Error> {
        s.put_str(self)
    }
}

impl Deserialize for String {
    #[inline]
    fn deserialize<D: Deserializer + ?Sized>(d: &mut D) -> Result<Self, D::Error> {
        d.get_string()
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    #[inline]
    fn serialize<S: Serializer + ?Sized>(&self, s: &mut S) -> Result<(), S::Error> {
        (**self).serialize(s)
    }
}

impl<T: Serialize + ?Sized> Serialize for &mut T {
    #[inline]
    fn serialize<S: Serializer + ?Sized>(&self, s: &mut S) -> Result<(), S::Error> {
        (**self).serialize(s)
    }
}

macro_rules! smart_pointer {
    ($($p:ident),*) => {$(
        impl<T: Serialize + ?Sized> Serialize for $p<T> {
            #[inline]
            fn serialize<S: Serializer + ?Sized>(&self, s: &mut S) -> Result<(), S::Error> {
                (**self).serialize(s)
            }
        }
        impl<T: Deserialize> Deserialize for $p<T> {
            #[inline]
            fn deserialize<D: Deserializer + ?Sized>(d: &mut D) -> Result<Self, D::Error> {
                T::deserialize(d).map($p::new)
            }
        }
    )*};
}

use std::rc::Rc;
use std::sync::Arc;
smart_pointer!(Box, Arc, Rc);

impl<T: Deserialize> Deserialize for Box<[T]> {
    fn deserialize<D: Deserializer + ?Sized>(d: &mut D) -> Result<Self, D::Error> {
        Vec::<T>::deserialize(d).map(Vec::into_boxed_slice)
    }
}

impl<T: Deserialize> Deserialize for Arc<[T]> {
    fn deserialize<D: Deserializer + ?Sized>(d: &mut D) -> Result<Self, D::Error> {
        Vec::<T>::deserialize(d).map(Arc::from)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    #[inline]
    fn serialize<S: Serializer + ?Sized>(&self, s: &mut S) -> Result<(), S::Error> {
        match self {
            None => s.put_none(),
            Some(v) => {
                s.begin_some()?;
                v.serialize(s)
            }
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    #[inline]
    fn deserialize<D: Deserializer + ?Sized>(d: &mut D) -> Result<Self, D::Error> {
        if d.get_option()? {
            T::deserialize(d).map(Some)
        } else {
            Ok(None)
        }
    }
}

fn serialize_iter<'a, S, T, I>(s: &mut S, len: usize, iter: I) -> Result<(), S::Error>
where
    S: Serializer + ?Sized,
    T: Serialize + 'a,
    I: Iterator<Item = &'a T>,
{
    s.begin_seq(len)?;
    for v in iter {
        s.elem()?;
        v.serialize(s)?;
    }
    s.end_seq()
}

/// Read a sequence, handing each element to `push`.
fn deserialize_seq<D, T>(d: &mut D, mut push: impl FnMut(T)) -> Result<(), D::Error>
where
    D: Deserializer + ?Sized,
    T: Deserialize,
{
    match d.begin_seq()? {
        Some(len) => {
            for _ in 0..len {
                push(T::deserialize(d)?);
            }
        }
        None => {
            while d.seq_next()? {
                push(T::deserialize(d)?);
            }
        }
    }
    d.end_seq()
}

impl Serialize for u8 {
    #[inline]
    fn serialize<S: Serializer + ?Sized>(&self, s: &mut S) -> Result<(), S::Error> {
        s.put_u8(*self)
    }
    #[inline]
    fn serialize_slice<S: Serializer + ?Sized>(items: &[u8], s: &mut S) -> Result<(), S::Error> {
        s.put_byte_seq(items)
    }
}

impl Deserialize for u8 {
    #[inline]
    fn deserialize<D: Deserializer + ?Sized>(d: &mut D) -> Result<Self, D::Error> {
        d.get_u8()
    }
    #[inline]
    fn deserialize_vec<D: Deserializer + ?Sized>(d: &mut D) -> Result<Vec<u8>, D::Error> {
        d.get_byte_seq()
    }
}

impl<T: Serialize> Serialize for [T] {
    #[inline]
    fn serialize<S: Serializer + ?Sized>(&self, s: &mut S) -> Result<(), S::Error> {
        T::serialize_slice(self, s)
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    #[inline]
    fn serialize<S: Serializer + ?Sized>(&self, s: &mut S) -> Result<(), S::Error> {
        T::serialize_slice(self, s)
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    #[inline]
    fn deserialize<D: Deserializer + ?Sized>(d: &mut D) -> Result<Self, D::Error> {
        T::deserialize_vec(d)
    }
}

impl<T: Serialize> Serialize for VecDeque<T> {
    fn serialize<S: Serializer + ?Sized>(&self, s: &mut S) -> Result<(), S::Error> {
        serialize_iter(s, self.len(), self.iter())
    }
}

impl<T: Deserialize> Deserialize for VecDeque<T> {
    fn deserialize<D: Deserializer + ?Sized>(d: &mut D) -> Result<Self, D::Error> {
        let mut out = VecDeque::new();
        deserialize_seq(d, |v| out.push_back(v))?;
        Ok(out)
    }
}

impl<T: Serialize> Serialize for BTreeSet<T> {
    fn serialize<S: Serializer + ?Sized>(&self, s: &mut S) -> Result<(), S::Error> {
        serialize_iter(s, self.len(), self.iter())
    }
}

impl<T: Deserialize + Ord> Deserialize for BTreeSet<T> {
    fn deserialize<D: Deserializer + ?Sized>(d: &mut D) -> Result<Self, D::Error> {
        let mut out = BTreeSet::new();
        deserialize_seq(d, |v| {
            out.insert(v);
        })?;
        Ok(out)
    }
}

impl<T: Serialize, H> Serialize for HashSet<T, H> {
    fn serialize<S: Serializer + ?Sized>(&self, s: &mut S) -> Result<(), S::Error> {
        serialize_iter(s, self.len(), self.iter())
    }
}

impl<T: Deserialize + Eq + Hash, H: BuildHasher + Default> Deserialize for HashSet<T, H> {
    fn deserialize<D: Deserializer + ?Sized>(d: &mut D) -> Result<Self, D::Error> {
        let mut out = HashSet::default();
        deserialize_seq(d, |v| {
            out.insert(v);
        })?;
        Ok(out)
    }
}

fn serialize_map<'a, S, K, V, I>(s: &mut S, len: usize, iter: I) -> Result<(), S::Error>
where
    S: Serializer + ?Sized,
    K: Serialize + 'a,
    V: Serialize + 'a,
    I: Iterator<Item = (&'a K, &'a V)>,
{
    s.begin_map(len)?;
    for (k, v) in iter {
        s.map_key()?;
        k.serialize(s)?;
        s.map_value()?;
        v.serialize(s)?;
    }
    s.end_map()
}

fn deserialize_map<D, K, V>(d: &mut D, mut insert: impl FnMut(K, V)) -> Result<(), D::Error>
where
    D: Deserializer + ?Sized,
    K: Deserialize,
    V: Deserialize,
{
    let mut entry = |d: &mut D| -> Result<(), D::Error> {
        let k = K::deserialize(d)?;
        d.map_value()?;
        let v = V::deserialize(d)?;
        insert(k, v);
        Ok(())
    };
    match d.begin_map()? {
        Some(len) => {
            for _ in 0..len {
                entry(d)?;
            }
        }
        None => {
            while d.map_next()? {
                entry(d)?;
            }
        }
    }
    d.end_map()
}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn serialize<S: Serializer + ?Sized>(&self, s: &mut S) -> Result<(), S::Error> {
        serialize_map(s, self.len(), self.iter())
    }
}

impl<K: Deserialize + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn deserialize<D: Deserializer + ?Sized>(d: &mut D) -> Result<Self, D::Error> {
        let mut out = BTreeMap::new();
        deserialize_map(d, |k, v| {
            out.insert(k, v);
        })?;
        Ok(out)
    }
}

impl<K: Serialize, V: Serialize, H> Serialize for HashMap<K, V, H> {
    fn serialize<S: Serializer + ?Sized>(&self, s: &mut S) -> Result<(), S::Error> {
        serialize_map(s, self.len(), self.iter())
    }
}

impl<K: Deserialize + Eq + Hash, V: Deserialize, H: BuildHasher + Default> Deserialize for HashMap<K, V, H> {
    fn deserialize<D: Deserializer + ?Sized>(d: &mut D) -> Result<Self, D::Error> {
        let mut out = HashMap::default();
        deserialize_map(d, |k, v| {
            out.insert(k, v);
        })?;
        Ok(out)
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    #[inline]
    fn serialize<S: Serializer + ?Sized>(&self, s: &mut S) -> Result<(), S::Error> {
        s.begin_tuple(N)?;
        for v in self {
            s.elem()?;
            v.serialize(s)?;
        }
        s.end_tuple()
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    #[inline]
    fn deserialize<D: Deserializer + ?Sized>(d: &mut D) -> Result<Self, D::Error> {
        d.begin_tuple(N)?;
        let mut items = Vec::with_capacity(N);
        for _ in 0..N {
            d.tuple_elem()?;
            items.push(T::deserialize(d)?);
        }
        d.end_tuple()?;
        items.try_into().map_err(|_| D::Error::custom("array length mismatch"))
    }
}

macro_rules! tuple {
    ($(($len:expr; $($t:ident $i:tt),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            #[inline]
            fn serialize<S: Serializer + ?Sized>(&self, s: &mut S) -> Result<(), S::Error> {
                s.begin_tuple($len)?;
                $(
                    s.elem()?;
                    self.$i.serialize(s)?;
                )+
                s.end_tuple()
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            #[inline]
            fn deserialize<D: Deserializer + ?Sized>(d: &mut D) -> Result<Self, D::Error> {
                d.begin_tuple($len)?;
                let out = ($(
                    {
                        d.tuple_elem()?;
                        $t::deserialize(d)?
                    },
                )+);
                d.end_tuple()?;
                Ok(out)
            }
        }
    )*};
}

tuple! {
    (1; A 0)
    (2; A 0, B 1)
    (3; A 0, B 1, C 2)
    (4; A 0, B 1, C 2, E 3)
    (5; A 0, B 1, C 2, E 3, F 4)
    (6; A 0, B 1, C 2, E 3, F 4, G 5)
    (7; A 0, B 1, C 2, E 3, F 4, G 5, H 6)
    (8; A 0, B 1, C 2, E 3, F 4, G 5, H 6, I 7)
}

impl Serialize for std::time::Duration {
    fn serialize<S: Serializer + ?Sized>(&self, s: &mut S) -> Result<(), S::Error> {
        s.begin_struct("Duration", 2)?;
        s.field("secs")?;
        s.put_u64(self.as_secs())?;
        s.field("nanos")?;
        s.put_u32(self.subsec_nanos())?;
        s.end_struct()
    }
}
