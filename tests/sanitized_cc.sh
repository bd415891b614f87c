#!/bin/sh
# A REPRO_CC wrapper: gcc with a sanitizer, picked by the name it is called
# under.  Link it as `.../cc-undefined` for UBSan (every finding aborts) or as
# `.../cc-address` for ASan (run Python with libasan.so in LD_PRELOAD and
# ASAN_OPTIONS=detect_leaks=0).  The toolchain probe keys every native
# artifact by the cc path, so each name builds its own.
case "$(basename "$0")" in
    *address*) exec gcc "$@" -fsanitize=address -fno-omit-frame-pointer ;;
    *undefined*) exec gcc "$@" -fsanitize=undefined,float-cast-overflow -fno-sanitize-recover=all ;;
    *) echo "sanitized_cc.sh: call it as cc-undefined or cc-address" >&2; exit 2 ;;
esac
