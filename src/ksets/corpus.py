"""Bundled corpus of known critical KS sets from the 60-75 class.

One MMP line per set, keyed by its vertices-edges signature.  The strings
are kept verbatim as published, including one entry (60-40) with a doubled
comma and a missing final stop, so loading uses lenient parsing.  Where
known, the maximal-loop (n-gon) size of an entry is recorded in
LOOP_SIZES.
"""

from __future__ import annotations

from .mmp import LENIENT, Hypergraph, parse_mmp

CORPUS_LINES: dict[str, str] = {
    "38-19": (
        "A9BC,CE8D,DNMO,OQJP,PV1R,RLGS,SZ5a,ac4Y,YKIX,XW2T,TU6A,1234,5678,FGH"
        "E,IJH7,KLMB,VWN9,bcQF,bZU3."
    ),
    "42-24": (
        "3124,4VIU,UX97,7586,6WOd,dHBT,TRSM,MKJL,LcCb,bPGf,fgAe,eYQa,aZE3,9AB"
        "C,DEF8,GHIJ,NOPQ,WXYF,ecVD,gUSO,ZTN7,bWR2,fK63,eJ72."
    ),
    "45-26": (
        "1234,5678,9ABC,DEFG,HIG8,JKLM,NOPQ,RSQC,TUSF,VWXP,YZE4,abcd,edUO,cXM"
        "3,fZR7,bWL7,geI3,fNKD,hgVT,ijYN,haYH,jTM6,aB62,iVR2,eYLA,dVK9."
    ),
    "46-28": (
        "1234,5678,9AB8,CDEF,GHIJ,KLMN,OPQR,STR4,UVNF,WXYZ,abZT,YQME,cdYB,efb"
        "7,gVSJ,hiPA,jfOI,idHD,aLIC,ieXN,jiS6,kgM5,khcG,kbU9,hL73,cON2,WSL9,g"
        "ZOD."
    ),
    "47-28": (
        "1234,5674,89AB,CDEF,GHIJ,KLJ7,MNOB,PQR3,STUO,VWU6,XYI5,ZabL,cdYL,efb"
        "F,gaHA,hWG9,iTGE,jkZ2,lkNE,kdUR,lfXK,hXD1,XVQ8,jfPA,jcMC,ecSQ,khge,i"
        "aXM."
    ),
    "48-28": (
        "1234,5678,9ABC,DEC8,FGHI,JKLM,NOME,PQRB,STIA,UVWX,YXRL,Zab4,cdW3,efg"
        "T,hdbK,ijcJ,gVQH,kfJG,lhF7,jeb6,iUPD,faU9,YS72,mlZT,lQO3,kdYN,mUN6,i"
        "ZYH."
    ),
    "49-28": (
        "1234,5678,9ABC,DEFG,HIJ8,KLG7,MNOP,QRSP,TUVJ,WLC4,XYZV,abS7,cdeb,fgU"
        "O,heZN,ijdI,kgaF,lcYM,jYRE,iXQG,fHGB,mfdW,mkTN,nhR3,nigA,lhFC,cTG3,m"
        "YA7."
    ),
    "49-30": (
        "1234,5678,9ABC,DEFG,HIJK,LMN8,OPQR,STUK,VWRC,XYZW,abcQ,deJ4,fghe,ijU"
        "3,kjQG,ZTNB,khA7,gYS8,lkV2,mcMF,mif6,lidE,nfXD,mPJB,gOI3,bX73,ndcC,l"
        "gaB,nkNI,lXMK."
    ),
    "50-30": (
        "3124,4DEF,Fm6i,ihbP,POQJ,JHIG,GoCj,jkKS,SRTU,UeLd,dl7W,WVNX,Xg8f,fnA"
        "Z,ZYa3,5678,9ABC,KLMN,bcaM,TQFC,ecEB,lkPA,mdZO,mgRI,iYKH,njcW,jhg4,V"
        "HA4,oaR7,oife."
    ),
    "51-30": (
        "1234,5678,9AB8,CDEF,GHIJ,KLMN,ONJ4,PQRS,TUB3,VWIA,XSOF,YZE7,aHD6,bcZ"
        "X,defW,ghiM,cWR2,jkL9,liR5,mbUC,nkfb,onha,pgeX,pojG,mhdQ,oYP3,pmVK,n"
        "lTK,kgYH,ljd4."
    ),
    "52-30": (
        "1234,5678,9ABC,DEF4,GHIJ,KLMN,OPQ8,RSQJ,TUVI,WXYZ,abcJ,NHC3,defg,hij"
        "c,kgbB,lkZ7,mYMJ,njX4,fSNF,oWVA,piPA,qeVE,onml,qpna,ohdQ,pfYU,liLE,U"
        "QLB,qhN7,ngI8."
    ),
    "53-30": (
        "1234,5678,9ABC,DEFG,HIJK,LMNO,PQRS,TUVW,XYZW,abZS,cdVG,eRC4,fghY,ihK"
        "3,gdbJ,jkeI,lQOF,mki8,nopJ,qpjE,qhP7,roX7,nmUQ,rjcN,rfUB,pliT,paMB,m"
        "YNC,MIG7,lbC7."
    ),
    "51-32": (
        "1234,5678,9AB4,CDEF,GHFB,IJKL,MNOP,QRPL,STUH,VWXR,YZUQ,abcO,dZXE,eTK"
        "8,fgJA,hig3,jiN7,iSD9,khcY,lXMK,mnWA,opYI,ndc6,ljfC,mjZ2,lbS5,pV62,p"
        "iaG,ogeb,keWG,onPC,kSP2."
    ),
    "52-32": (
        "1234,5674,89AB,CDE7,FGHB,IJKL,MLA3,NOP2,QRST,UVWX,YZaX,bcWT,dePK,fgS"
        "J,hiaH,jkOG,lmW9,nmgN,oeVR,kife,pkZQ,pcE3,onHE,qjRM,qfbY,hbND,qp96,l"
        "aR4,UJGD,qndU,dZB7,RNIB."
    ),
    "53-32": (
        "1234,5678,9A84,BCDE,FGHI,JKLM,NOPQ,RST3,UVW7,XYIA,Zabc,defM,ghYL,ijc"
        "T,kWQ2,ljfH,mhbV,nmiP,eSGE,oaUK,pgZR,qohO,plNK,ondI,ZXE2,rfUD,gdC6,q"
        "iD9,rpmk,qkJG,cNG5,mHC3."
    ),
    "54-32": (
        "1234,5678,9ABC,DEFG,HIJC,KLMN,OPQR,STUC,VWXY,URN4,Zabc,def3,ghcQ,ihM"
        "J,jkB8,lifY,mkgT,nopA,qrlT,rpjP,ebX8,rhdG,qoeJ,maPF,naNI,sbLE,som7,o"
        "ZYG,nWTE,rVN7,fQEB,YPLC."
    ),
    "55-32": (
        "1234,5678,9ABC,DEFC,GHIJ,KLMF,NOPQ,RSTU,VWXY,ZabE,cde8,fghe,ijeQ,klm"
        "U,mhbJ,nopB,qrpT,sjT4,todY,naMI,SHA3,tlP7,ngR7,rGF7,qZXO,tsZL,eWM3,f"
        "VLA,nmiV,dNF4,qkdA,mOC8."
    ),
    "53-34": (
        "1234,5674,89AB,CDEF,GHIJ,KLMN,OPQR,STUV,WVRB,XYUF,Zabc,decN,fgYJ,hij"
        "A,kjbE,lmQF,ePI3,aWMI,niXL,oZRH,phcT,pmH7,qkLB,pgKE,qhI6,rnmf,ncO2,m"
        "dSA,OJDA,roke,ogS6,lLJ4,raU4,nIE9."
    ),
    "54-34": (
        "1234,4567,789A,ABCD,DEFG,GHIJ,JKLM,MNOP,PQRS,STUV,VWXY,YZab,bcde,efg"
        "h,hijk,klm1,3EQb,5DWl,7JYk,8Ubl,CHXe,DKTa,EMfm,OTck,2nLZ,3To9,6FLq,7"
        "Nen,Bonm,IQWn,Ipdi,LRlp,Srsj,Ugrq."
    ),
    "55-34": (
        "1234,5674,89AB,CDEF,GHIJ,KLJ7,MNOP,QRST,UVWT,XYZa,bcaW,dec6,fghI,ihP"
        "B,jkgS,kZVL,lmRO,noi3,pqYI,rNF3,qoeE,mbDA,sljc,rplU,sfXQ,kbH2,tsqN,n"
        "dYO,tU97,nfLA,reSJ,XUPH,siJD,kOE9."
    ),
    "56-34": (
        "1234,5674,89AB,CDEF,GHIJ,KLMN,OPQR,STUJ,VWXB,YURN,Zabc,defT,ghMF,ijQ"
        "E,klmA,nLI9,opnc,pmhY,qjbH,oKD8,olX7,rsfa,iWS3,tsWM,utZP,urmJ,neO6,u"
        "qog,dHF3,skH6,qYV4,laIE,ieZY,fPD4."
    ),
    "57-34": (
        "1234,5674,89AB,CDEF,GHIJ,KLMN,OPQB,RSTU,VWXY,Zabc,defc,ghb7,ijkY,lmn"
        "U,ofT3,pqSA,rstR,qnXQ,uvmN,pkhN,ljgP,ieMA,tolJ,vdWI,aQJF,ueVP,ZPLE,s"
        "PI4,RNHD,voiZ,rnL3,bYDB,rpVF,dRQ7."
    ),
    "58-34": (
        "1234,5678,9ABC,DEF8,GHIJ,KLMN,OPQN,RSTU,VWXY,ZaMJ,bYU4,cdef,ghia,jki"
        "Q,lmnT,onP8,phfL,qoeS,rROI,hbHC,srp3,qpmX,tuvo,wvdJ,wqb7,rkdK,jcWB,u"
        "scb,trlB,ukVT,lbZF,gVIF,vpjF,qgNB."
    ),
    "59-34": (
        "1234,5678,9ABC,DEFG,HIJK,LMNO,PQR8,STUV,WXYZ,abcZ,defg,higO,jklm,nop"
        "m,qric,slbR,tukQ,uV74,vuYN,srf3,paN3,wthC,jeKB,xwvj,qodX,xqUQ,jVMG,U"
        "JF3,nIC8,wWTH,cTE8,snWM,wdRF,oTOB."
    ),
    "55-36": (
        "1234,5678,9AB4,CDEF,GHIJ,KLMF,NOP3,QRPM,STUJ,VWOB,XYZa,bcdA,efgh,ijk"
        "d,lmkU,haNJ,nocW,pREB,qrpj,mbZ2,ojJD,srM8,qgb7,tlaW,WTF7,qnQI,kYHE,s"
        "ZIB,fXOD,iL62,tfI6,qSOL,leLA,neE8,rWH2,kfM4."
    ),
    "56-36": (
        "1234,5674,89AB,CDEF,GHIJ,KLMF,NOPQ,RST3,UVWX,YZaX,bcdW,efgB,hVE7,ijg"
        "Q,kTPM,lmnd,oQJD,pqrs,faC2,tsnI,kjcA,tZOA,uib6,mYS9,uonf,rliR,sUQL,q"
        "XPH,poZ4,rG97,mkeU,hRIB,qmh2,mOK6,ocRK,bPC9."
    ),
    "57-36": (
        "1234,5674,89A3,BCDE,FGHI,JKLM,NOPQ,RSTU,VWXY,ZaYQ,bcdI,efE2,ghM3,ijk"
        "f,lhda,mecP,nOL7,oXU6,pqbA,kNHD,rsqZ,pnfT,cWSK,ZJGE,tunl,vsVO,ljUG,v"
        "gTD,umiR,oiOI,rmh6,iWCA,vtA6,usH4,mYD9,qlKD."
    ),
    "58-36": (
        "1234,5674,89AB,CDEF,GHI3,JKLM,NOPQ,RSTM,UVB7,WXYI,ZaYT,bcaQ,dcSF,efg"
        "h,ijkR,lmhP,ngXL,nmZH,opWV,qplK,rpaA,sJE4,trkG,tnD9,usoZ,vfbI,qjf6,w"
        "XO6,wtse,vtld,kbVC,uhUM,wpiF,ujdN,kh84,pnN4."
    ),
    "59-36": (
        "1234,5674,89AB,CDEF,GHB7,IJKL,MNOP,QRPF,STUV,WXYA,ZabL,cdef,ghij,kfb"
        "Y,kVR6,lKH3,mjO9,nopX,qrlU,siXT,tule,vwpS,odRK,xusJ,xwc6,thYG,daOE,w"
        "rm2,iND4,uZSA,xqF9,rnfN,vtNL,rgEA,phPJ,XLF2."
    ),
    "60-36": (
        "1234,5678,9AB8,CDEF,GHIJ,KLMN,OPQJ,RSTU,VWXN,YZab,cdeB,fgX7,hgeM,ijQ"
        "F,kljd,mnoN,phbI,qrif,saEB,tolH,uvn4,srUL,wMD3,xmkf,wroZ,vcbT,ywjS,h"
        "WSP,ukYL,kVTJ,yvHE,uqP8,xUH8,tfbD,poQB,fSB4."
    ),
    "57-38": (
        "1234,5674,89AB,CDE7,FGHI,JKLM,NOPB,QRS3,TUVW,XYZa,bcde,fgPM,heWE,ijV"
        "S,klRI,mnol,podH,qrU6,sraP,toOL,ukaK,tgZG,cKD3,vspQ,vueO,vTJ7,vqgA,p"
        "kjh,nibP,jfcY,rmjG,nY94,viXI,tiE2,tkT9,qYHE,mQEB,cUIB."
    ),
    "58-38": (
        "1234,5674,89AB,CDEB,FGHI,JKL7,MNOP,QRST,UVWX,YZaA,bcLE,defg,hia3,jkX"
        "P,lmZK,ngWT,opnI,qrkH,rpSB,sfRO,tjRK,sYVL,umUG,vcPF,wm96,qeUD,okid,u"
        "dbQ,wdYN,vpf2,wnhc,qnMK,utra,viW9,sliD,wtD2,QPD7,usn4."
    ),
    "59-38": (
        "1234,5674,89A3,BCD7,EFGH,IJKL,MNOL,PQRS,TUVW,XYZW,abZ2,cdeb,fgK6,hij"
        "A,aVSH,klJ9,mnoG,pID8,qrYC,stO1,oeRO,ujgF,vuol,wutU,xkid,wnZJ,mjcX,r"
        "fdQ,rhaN,xwPC,vcNE,qpkR,wpfM,vpV5,rmT8,tmkB,sWPF,vsiK."
    ),
    "60-38": (
        "1234,5674,89A7,BCDE,FGHI,JKLM,NOPE,QRST,UVWT,XYZa,bcde,fghA,eWMI,ijk"
        "l,mnlV,opha,qrgU,spnD,tdL3,trSP,cZRK,uveO,qkYI,jRHD,wrZ9,xiQ4,vtXV,m"
        "JC7,ywN6,yxtf,pibN,ysKG,wjhd,romG,upT2,xumY,yqC2,viGA."
    ),
    "59-40": (
        "1234,5678,9ABC,DEF8,GHI4,JKLM,NOPI,QRSC,TUVW,XYZH,abMB,cWPC,debZ,fgh"
        "7,ijkF,lmnk,opje,qnaV,rsmU,tjU3,lhYS,uSE2,sqdA,kgXR,upfO,vTQN,qfL3,w"
        "nNK,vuJG,wfbF,xicK,tgcE,vqoX,xura,xlTA,vcb6,spcY,rgeN,leG8,XUK8."
    ),
    "60-40": (
        "3124,4576,6yau,uvVt,trqs,soTP,Pxh9,98AB,BpWM,MJLK,KicU,UwOl,lmnk,kjS"
        "H,HGIF,FCED,DYRf,feg3,,NOPM,QRSB,TUVW,XYZW,abcd,hiI2,odZS,pjc7,qLA6,"
        "wtbH,xvpg,yxnR,rhSJ,vOEA,mYP6,ieCB,oneG,ncXA,ulhf,reaO,wpoD,slB4"
    ),
}

# published maximal-loop sizes for the entries where one is stated
LOOP_SIZES: dict[str, int] = {
    "45-26": 12,
    "42-24": 13,
    "50-30": 15,
    "54-34": 16,
    "60-40": 18,
}


def load(name: str) -> Hypergraph:
    """Parse one corpus entry; raises KeyError for unknown signatures."""
    return parse_mmp(CORPUS_LINES[name], LENIENT)


def load_all() -> dict[str, Hypergraph]:
    return {name: load(name) for name in CORPUS_LINES}
