#[inline]
#[allow(unused_mut, unused_variables, unused_parens, unused_assignments, clippy::all)]
pub fn ip(mem: &mut Vec<u8>, mut s: u64, mut len: u64) -> u64 {
    let mut n: u64 = 0;
    let mut acc: u64 = 0;
    let mut i: u64 = 0;
    let mut out: u64 = 0;
    let r_s = &mut mem[s as usize..][..len as usize];
    n = ((len) >> ((1u64) & 63));
    acc = 0u64;
    i = 0u64;
    while (u64::from((i) < (n))) != 0 {
        acc = (acc).wrapping_add(((((u64::from(r_s[(((i) << ((1u64) & 63))) as usize])) << ((8u64) & 63))) | (u64::from(r_s[((((i) << ((1u64) & 63))).wrapping_add(1u64)) as usize]))));
        i = (i).wrapping_add(1u64);
    }
    acc = (((acc) & (65535u64))).wrapping_add(((acc) >> ((16u64) & 63)));
    acc = (((acc) & (65535u64))).wrapping_add(((acc) >> ((16u64) & 63)));
    acc = (((acc) & (65535u64))).wrapping_add(((acc) >> ((16u64) & 63)));
    acc = (((acc) & (65535u64))).wrapping_add(((acc) >> ((16u64) & 63)));
    out = ((acc) ^ (65535u64));
    out
}
