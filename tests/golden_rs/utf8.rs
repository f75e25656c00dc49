#[inline]
#[allow(unused_mut, unused_variables, unused_parens, unused_assignments, clippy::all)]
pub fn utf8(mem: &mut Vec<u8>, mut s: u64, mut len: u64) -> u64 {
    let mut n: u64 = 0;
    let mut acc: u64 = 0;
    let mut i: u64 = 0;
    let mut out: u64 = 0;
    let r_s = &mut mem[s as usize..][..len as usize];
    n = (len).wrapping_sub(3u64);
    acc = 0u64;
    i = 0u64;
    while (u64::from((i) < (n))) != 0 {
        acc = (acc).wrapping_add((((u64::from(r_s[(i) as usize])).wrapping_mul(u64::from((u64::from(r_s[(i) as usize])) < (128u64)))).wrapping_add((((((((u64::from(r_s[(i) as usize])) & (31u64))) << ((6u64) & 63))) | (((u64::from(r_s[((i).wrapping_add(1u64)) as usize])) & (63u64))))).wrapping_mul(u64::from((((u64::from(r_s[(i) as usize])) >> ((5u64) & 63))) == (6u64))))).wrapping_add(((((((((u64::from(r_s[(i) as usize])) & (15u64))) << ((12u64) & 63))) | (((((((u64::from(r_s[((i).wrapping_add(1u64)) as usize])) & (63u64))) << ((6u64) & 63))) | (((u64::from(r_s[((i).wrapping_add(2u64)) as usize])) & (63u64))))))).wrapping_mul(u64::from((((u64::from(r_s[(i) as usize])) >> ((4u64) & 63))) == (14u64)))).wrapping_add((((((((u64::from(r_s[(i) as usize])) & (7u64))) << ((18u64) & 63))) | (((((((u64::from(r_s[((i).wrapping_add(1u64)) as usize])) & (63u64))) << ((12u64) & 63))) | (((((((u64::from(r_s[((i).wrapping_add(2u64)) as usize])) & (63u64))) << ((6u64) & 63))) | (((u64::from(r_s[((i).wrapping_add(3u64)) as usize])) & (63u64))))))))).wrapping_mul(u64::from((((u64::from(r_s[(i) as usize])) >> ((3u64) & 63))) == (30u64))))));
        i = (i).wrapping_add(1u64);
    }
    out = acc;
    out
}
